package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gemini/internal/dse"
	"gemini/internal/fleet"
	"gemini/internal/serve"
)

// fleetSpec is the fleet_drain grid, strong-first as in the repository's
// fleet benchmark: the full-speed half enumerates first, the DRAM-starved
// half second, so the incumbent the first shards broadcast prunes the
// starved half before it is mapped.
const fleetSpec = `{
	"space": {"tops": 72, "cuts": [1], "dram_per_tops": [2, 0.007],
	          "noc_gbps": [32, 48, 64, 96], "d2d_ratios": [0.5],
	          "glb_kb": [1024], "macs": [1024]},
	"models": ["tinycnn"],
	"sa_iterations": 600,
	"restarts": 4,
	"prune": true
}`

// fleetSeeds is how many SA seeds the operations cycle through, so
// best_obj folds more than one search.
const fleetSeeds = bestObjOps

// fleetWorkers is how many in-process loopback workers drain each sweep;
// each runs its shards on one sweep worker, so the fleet uses nproc threads
// on the two-core reference machine.
const fleetWorkers = 2

// runFleetDrain is the fleet_drain workload. A serve.Server with DataDir and
// CacheDir set, as in production, hosts the fleet coordinator behind
// loopback HTTP. Each operation submits a fresh sweep id of the strong-first
// grid to /fleet/sweeps, drains it with fleetWorkers in-process workers
// (incumbent sharing on) — the lease, renew, incumbent and checkpoint
// exchange end to end — and then reads the result back with POST /sweep of
// the same id, which must resume every cell from the checkpoint the fleet
// persisted: the sweep handler, queue, NDJSON stream and persistence path.
// Operation i uses the (i mod fleetSeeds)-th SA seed of the run.
func runFleetDrain(r *run) error {
	spec, err := parseSpec(fleetSpec)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.out, fmt.Sprintf("fleet-seed%d-trace%t", r.seed, r.trace != nil))
	var (
		refs     [fleetSeeds]bestOf
		shards   int
		srv      *serve.Server
		mw       *middleware
		url      string
		stopHTTP func()
	)
	err = r.setup(func(int) error {
		if srv != nil {
			stopHTTP()
			srv.Close()
		}
		cands, err := spec.Candidates()
		if err != nil {
			return err
		}
		graphs, err := spec.Graphs()
		if err != nil {
			return err
		}
		// References: each seed's spec swept by a single process.
		for k := range refs {
			opt := spec.Options()
			opt.Seed = r.saSeed(streamFleetSA, k)
			opt.Workers = r.workers
			res, _, err := dse.NewSession().RunContext(context.Background(), cands, graphs, opt)
			if err != nil {
				return err
			}
			if refs[k], err = bestOfResults(res); err != nil {
				return err
			}
		}
		shards = len(cands)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		srv = serve.New(serve.Config{
			DataDir:       filepath.Join(dir, "data"),
			CacheDir:      filepath.Join(dir, "cache"),
			WorkerSlots:   r.workers,
			FleetLeaseTTL: time.Minute,
		})
		mw = newMiddleware(srv, r, "/fleet/checkpoint")
		url, stopHTTP, err = listen(mw)
		return err
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer srv.Close()
	defer stopHTTP()

	// One connection per worker; the submitting client's requests come
	// before and after the workers run.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	workerTransports := make([]*http.Transport, fleetWorkers)
	for w := range workerTransports {
		workerTransports[w] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer workerTransports[w].CloseIdleConnections()
	}
	var (
		times                 opTimes
		saIters, pruned       int
		hits, misses          int64
		queueWait, run, store []float64
		preempted             int
	)
	ls := &layerStats{}
	ops := r.loop(bestObjOps, func(i, root int) error {
		// The first checkpoint upload of the op is its first settled result.
		mw.root.Store(int64(root))
		mw.firstAt.Store(0)
		s := spec
		s.ID = fmt.Sprintf("drain-%d-%d", r.seed, i)
		s.Seed = r.saSeed(streamFleetSA, i%fleetSeeds)
		ref := refs[i%fleetSeeds]
		start := time.Now()
		if err := submitFleet(client, url, s, shards); err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, fleetWorkers)
		sessions := make([]*dse.Session, fleetWorkers)
		for w := range fleetWorkers {
			sessions[w] = dse.NewSession()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				id := r.trace.begin("fleet.RunWorker", root, i)
				defer r.trace.end(id)
				// The worker's requests carry its span, so the coordinator's
				// handler spans nest under the worker that caused them.
				wc := &http.Client{Transport: tagTransport{base: workerTransports[w], span: id, op: i}}
				errs[w] = fleet.RunWorker(context.Background(), fleet.WorkerConfig{
					Coordinator:  url + "/fleet",
					Name:         fmt.Sprintf("w%d", w),
					Workers:      1,
					ExitWhenIdle: true,
					Client:       wc,
					Session:      sessions[w],
				})
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		st, err := fleetStatus(client, url, s.ID)
		if err != nil {
			return err
		}
		if st.State != "done" || !st.Incumbent.Found {
			return fmt.Errorf("fleet sweep %s did not drain to a feasible best: %+v", s.ID, st)
		}
		if st.Incumbent.Candidate != ref.name || math.Float64bits(st.Incumbent.Objective) != math.Float64bits(ref.obj) {
			return fmt.Errorf("fleet best %s (obj %.17g) differs from single-process %s (obj %.17g)",
				st.Incumbent.Candidate, st.Incumbent.Objective, ref.name, ref.obj)
		}
		// Read-back: the same spec and id through the sweep service.
		span := r.trace.begin("serve.readback", root, i)
		o := submit(client, url, span, i, s)
		r.trace.end(span)
		done := time.Since(start)
		err = o.err
		if err == nil {
			err = ref.sameSummary(o.best)
		}
		// Every cell must be restored, or skipped because the restored
		// incumbent prunes its candidate; none may be mapped again.
		if mapped := o.stats.Cells - o.stats.ResumedCells - o.stats.PrunedCandidates*len(s.Models); err == nil && mapped != 0 {
			err = fmt.Errorf("read-back of %s mapped %d of %d cells again", s.ID, mapped, o.stats.Cells)
		}
		if err != nil {
			return err
		}
		saIters += st.Stats.SAIterations
		pruned += st.Stats.PrunedCandidates
		for _, ses := range sessions {
			cs := ses.CacheStats()
			hits += cs.Hits
			misses += cs.Misses
		}
		preempted += o.preempted
		queueWait = append(queueWait, ms(o.start.Sub(o.sent)))
		run = append(run, ms(o.last.Sub(o.start)))
		store = append(store, ms(o.done.Sub(o.last)))
		first := time.Unix(0, mw.firstAt.Load()).Sub(start)
		times.add(st.Cells, first, done, st.Incumbent.Objective)
		return nil
	})
	r.report(&times)
	if r.trace == nil {
		return nil
	}
	pid := r.trace.begin("op", -1, ops)
	err = r.measurePersistence(dir, ls, pid, ops)
	r.trace.end(pid)
	if err != nil {
		return err
	}
	ls.hits, ls.misses = hits, misses
	r.reportLayers(ls, ops)
	n := float64(max(ops, 1))
	calls := func(path string) float64 { c, _ := mw.count(path); return float64(c) / n }
	p50 := func(path string) float64 { _, m := mw.count(path); return m }
	r.put("fleet.lease_ms_p50", p50("/fleet/lease"), "ms")
	r.put("fleet.lease_calls", calls("/fleet/lease"), "count")
	r.put("fleet.empty_leases", float64(mw.empty.Load())/n, "count")
	r.put("fleet.renew_calls", calls("/fleet/renew"), "count")
	r.put("fleet.incumbent_calls", calls("/fleet/incumbent"), "count")
	r.put("fleet.incumbent_ms_p50", p50("/fleet/incumbent"), "ms")
	r.put("fleet.checkpoint_ms_p50", p50("/fleet/checkpoint"), "ms")
	r.put("fleet.sa_iterations", float64(saIters)/n, "count")
	r.put("fleet.pruned_candidates", float64(pruned)/n, "count")
	r.put("serve.queue_wait_ms_p50", quantile(queueWait, 0.5), "ms")
	r.put("serve.run_ms_p50", quantile(run, 0.5), "ms")
	r.put("serve.persist_ms_p50", quantile(store, 0.5), "ms")
	r.put("serve.handler_ms_p50", p50("/sweep"), "ms")
	r.put("serve.rejected", float64(mw.rejected.Load()), "count")
	r.put("serve.preempted", float64(preempted), "count")
	return nil
}

// tagTransport tags every request with the span and operation that caused
// it, for the timing middleware.
type tagTransport struct {
	base     http.RoundTripper
	span, op int
}

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set("X-Bench-Span", strconv.Itoa(t.span))
	req.Header.Set("X-Bench-Op", strconv.Itoa(t.op))
	return t.base.RoundTrip(req)
}

// submitFleet POSTs a fleet sweep to the coordinator.
func submitFleet(client *http.Client, url string, spec dse.Spec, shards int) error {
	body, err := json.Marshal(fleet.SubmitRequest{Spec: spec, Shards: shards})
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/fleet/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("fleet submit %s answered %d", spec.ID, resp.StatusCode)
	}
	return nil
}

// fleetStatus reads one fleet sweep's status from the coordinator.
func fleetStatus(client *http.Client, url, id string) (fleet.SweepStatus, error) {
	var st fleet.SweepStatus
	resp, err := client.Get(url + "/fleet/sweeps/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("fleet status %s answered %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding fleet status %s: %w", id, err)
	}
	return st, nil
}
