package core

import (
	"fmt"
	"slices"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/intracore"
)

// PW is a partitioned workload: the slice of a layer's output cube assigned
// to one core by the correspondence rule (paper Sec. IV-A).
type PW struct {
	Layer          int
	Core           arch.CoreID
	HR, WR, BR, KR dnn.Range
}

// Vol returns the output elements this workload produces per pass.
func (p *PW) Vol() int64 {
	return int64(p.HR.Len()) * int64(p.WR.Len()) * int64(p.BR.Len()) * int64(p.KR.Len())
}

// CoreFlow is a per-pass data movement from one core's GLB to one or more
// consumer cores (identical payloads are multicast, paper Sec. IV-C).
type CoreFlow struct {
	Src   arch.CoreID
	Dsts  []arch.CoreID
	Bytes float64
}

// DRAMFlow is a per-pass or per-run DRAM transfer. Ctrl is a 0-based
// controller index or -1 for interleaved. Reads multicast to Cores; writes
// originate from Cores[0].
type DRAMFlow struct {
	Layer int
	Ctrl  int
	Cores []arch.CoreID
	Bytes float64
	Write bool
}

// Analysis is the parsed form of one layer group's LMS: per-core workloads
// for the intra-core engine plus all activation and weight flows for the
// Evaluator. An Analysis can be reused across AnalyzeInto calls: its public
// slices and maps are overwritten in place and its private scratch buffers
// are recycled, so the SA hot loop parses groups without allocating.
type Analysis struct {
	GroupIndex int
	BatchUnit  int

	PWs     []PW
	ByLayer map[int][]int // layer -> indices into PWs (NID order)

	// Works holds the intra-core workload of each occupied core.
	Works map[arch.CoreID]intracore.Workload

	// ActFlows and ActDRAM repeat every batch-unit pass.
	ActFlows []CoreFlow
	ActDRAM  []DRAMFlow

	// WeightFlows load each layer's weight slices; the Evaluator applies
	// them once per run for GLB-resident weights or once per pass when a
	// core must stream them.
	WeightFlows []DRAMFlow

	// Depth is the pipeline depth (longest dependency chain) of the group.
	Depth int

	// Reusable scratch. coreArena backs the Cores/Dsts slices of the
	// emitted flows; pwIdx backs the ByLayer values (each layer's workloads
	// occupy a contiguous index range).
	pwIdx     []int
	coreArena []arch.CoreID
	group     map[int]*MS
	ofDRAM    map[int]int
	depthBuf  map[int]int
	inBytes   []int64 // indexed by CoreID
	needs     []needEntry
	klists    []krEntry
	srcEnd    []int32 // sortActFlows bucket bounds, indexed by CoreID
	flowBuf   []CoreFlow
}

// needEntry groups the consumer cores that fetch one identical input region
// (the unit of multicast dedup). The small per-edge set is kept as a slice
// with linear lookup: it is bounded by the group's core count and a slice
// both avoids map allocation churn and keeps emission order deterministic.
type needEntry struct {
	region dnn.EdgeRegion
	cores  []arch.CoreID
}

// krEntry groups the cores sharing one weight K-range slice.
type krEntry struct {
	kr    dnn.Range
	cores []arch.CoreID
}

// internCores copies a core list into the analysis arena, returning a
// capacity-clipped view that later arena appends cannot alias.
func (an *Analysis) internCores(cs ...arch.CoreID) []arch.CoreID {
	start := len(an.coreArena)
	an.coreArena = append(an.coreArena, cs...)
	return an.coreArena[start:len(an.coreArena):len(an.coreArena)]
}

// fdCtrl converts an FD value to the noc controller convention.
func fdCtrl(v int) int {
	if v == FDInterleave {
		return -1
	}
	return v - 1
}

// Analyze parses group gi of the scheme into a fresh Analysis.
// The scheme must have passed Validate.
func Analyze(s *Scheme, gi int, cfg *arch.Config) (*Analysis, error) {
	an := new(Analysis)
	if err := AnalyzeInto(an, s, gi, cfg); err != nil {
		return nil, err
	}
	return an, nil
}

// reset prepares a (possibly reused) Analysis for a new parse, recycling
// every buffer it has grown so far.
func (an *Analysis) reset(lms *LMS, gi, cores int) {
	an.GroupIndex = gi
	an.BatchUnit = lms.BatchUnit
	an.PWs = an.PWs[:0]
	an.ActFlows = an.ActFlows[:0]
	an.ActDRAM = an.ActDRAM[:0]
	an.WeightFlows = an.WeightFlows[:0]
	an.coreArena = an.coreArena[:0]
	an.Depth = 0
	if an.ByLayer == nil {
		an.ByLayer = make(map[int][]int, len(lms.MSs))
		an.Works = make(map[arch.CoreID]intracore.Workload)
		an.group = make(map[int]*MS, len(lms.MSs))
		an.ofDRAM = make(map[int]int)
		an.depthBuf = make(map[int]int, len(lms.MSs))
	} else {
		clear(an.ByLayer)
		clear(an.Works)
		clear(an.group)
		clear(an.ofDRAM)
		clear(an.depthBuf)
	}
	if cap(an.inBytes) < cores {
		an.inBytes = make([]int64, cores)
	}
	an.inBytes = an.inBytes[:cores]
	for i := range an.inBytes {
		an.inBytes[i] = 0
	}
}

// AnalyzeInto parses group gi of the scheme into an, reusing an's buffers.
// It is the allocation-free core of the Evaluator's hot loop: after warm-up
// a parse touches no heap. The scheme must have passed Validate.
//
//gemini:noalloc
func AnalyzeInto(an *Analysis, s *Scheme, gi int, cfg *arch.Config) error {
	lms := s.Groups[gi]
	g := s.Graph
	bu := lms.BatchUnit
	an.reset(lms, gi, cfg.Cores())
	for _, grp := range s.Groups {
		for _, ms := range grp.MSs {
			if ms.FD.OF != FDImplicit {
				an.ofDRAM[ms.Layer] = ms.FD.OF
			}
		}
	}
	for _, ms := range lms.MSs {
		an.group[ms.Layer] = ms
	}

	// Enumerate partitioned workloads per the correspondence rule. Each
	// layer's workloads occupy a contiguous range of PW indices, so the
	// ByLayer values are views into the shared pwIdx buffer.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		p := ms.Part
		start := len(an.PWs)
		for h := 0; h < p.H; h++ {
			for w := 0; w < p.W; w++ {
				for b := 0; b < p.B; b++ {
					for k := 0; k < p.K; k++ {
						hr, wr, br, kr := p.Ranges(l, bu, h, w, b, k)
						an.PWs = append(an.PWs, PW{
							Layer: ms.Layer,
							Core:  ms.CG[p.NID(h, w, b, k)],
							HR:    hr, WR: wr, BR: br, KR: kr,
						})
					}
				}
			}
		}
		an.ByLayer[ms.Layer] = an.pwIdxRange(start, len(an.PWs))
	}

	// Infer activation flows for every consumer edge.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		for _, edge := range l.Inputs {
			if err := an.analyzeEdge(s, l, ms, edge); err != nil {
				return err
			}
		}
		// Explicit ofmap writes to DRAM.
		if ms.FD.OF != FDImplicit {
			for _, pi := range an.ByLayer[ms.Layer] {
				pw := &an.PWs[pi]
				an.ActDRAM = append(an.ActDRAM, DRAMFlow{
					Layer: ms.Layer,
					Ctrl:  fdCtrl(ms.FD.OF),
					Cores: an.internCores(pw.Core),
					Bytes: float64(pw.Vol()) * dnn.ElemBytes,
					Write: true,
				})
			}
		}
	}

	// Weight loads, grouped by K-range so replicated slices multicast.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		if !l.HasWeights {
			continue
		}
		perK := l.WeightVol() / int64(l.OK)
		an.klists = an.klists[:0]
		for _, pi := range an.ByLayer[ms.Layer] {
			pw := &an.PWs[pi]
			ki := -1
			for i := range an.klists {
				if an.klists[i].kr == pw.KR {
					ki = i
					break
				}
			}
			if ki < 0 {
				an.klists = growKR(an.klists, pw.KR)
				ki = len(an.klists) - 1
			}
			an.klists[ki].cores = appendUnique(an.klists[ki].cores, pw.Core)
		}
		for i := range an.klists {
			kl := &an.klists[i]
			an.WeightFlows = append(an.WeightFlows, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  fdCtrl(ms.FD.WGT),
				Cores: an.internCores(kl.cores...),
				Bytes: float64(perK*int64(kl.kr.Len())) * dnn.ElemBytes,
			})
		}
	}

	// Build intra-core workloads.
	for _, ms := range lms.MSs {
		l := g.Layer(ms.Layer)
		perK := int64(0)
		if l.HasWeights {
			perK = l.WeightVol() / int64(l.OK)
		}
		for _, pi := range an.ByLayer[ms.Layer] {
			pw := &an.PWs[pi]
			vol := pw.Vol()
			work := intracore.Workload{
				Kind:     l.Kind,
				H:        pw.HR.Len(),
				W:        pw.WR.Len(),
				B:        pw.BR.Len(),
				K:        pw.KR.Len(),
				IC:       reducedChannels(l),
				R:        maxInt(l.R, 1),
				S:        maxInt(l.S, 1),
				Groups:   1, // IC already reduced per output channel
				MACs:     partMACs(l, vol),
				VecOps:   partVecOps(l, vol),
				InBytes:  an.inBytes[pw.Core],
				WBytes:   perK * int64(pw.KR.Len()) * dnn.ElemBytes,
				OutBytes: vol * dnn.ElemBytes,
			}
			if prev, dup := an.Works[pw.Core]; dup {
				//gemini:alloc-ok cold path: duplicate assignment means the scheme is invalid and the parse aborts
				return fmt.Errorf("core: core %d assigned twice (%v and layer %d)", pw.Core, prev.Kind, pw.Layer)
			}
			an.Works[pw.Core] = work
		}
	}

	an.Depth = groupDepth(g, an.group, an.depthBuf)
	an.sortFlows()
	return nil
}

// pwIdxRange returns the identity index slice [lo,hi) backed by the shared
// grow-only pwIdx buffer.
func (an *Analysis) pwIdxRange(lo, hi int) []int {
	for len(an.pwIdx) < hi {
		an.pwIdx = append(an.pwIdx, len(an.pwIdx))
	}
	return an.pwIdx[lo:hi:hi]
}

// growKR extends the klists buffer by one entry for kr, recycling the cores
// backing of a previously used slot when available.
func growKR(buf []krEntry, kr dnn.Range) []krEntry {
	if len(buf) < cap(buf) {
		buf = buf[:len(buf)+1]
	} else {
		buf = append(buf, krEntry{})
	}
	e := &buf[len(buf)-1]
	e.kr = kr
	e.cores = e.cores[:0]
	return buf
}

// growNeed extends the needs buffer by one entry for region, recycling the
// cores backing of a previously used slot when available.
func growNeed(buf []needEntry, region dnn.EdgeRegion) []needEntry {
	if len(buf) < cap(buf) {
		buf = buf[:len(buf)+1]
	} else {
		buf = append(buf, needEntry{})
	}
	e := &buf[len(buf)-1]
	e.region = region
	e.cores = e.cores[:0]
	return buf
}

// sortFlows orders all flow slices deterministically. Flow emission order
// follows scratch-buffer insertion order, so without this the float
// summation order (and therefore SA accept/reject decisions) could vary
// between structurally identical schemes built along different paths.
func (an *Analysis) sortFlows() {
	an.sortActFlows()
	sortDRAMFlows(an.ActDRAM)
	sortDRAMFlows(an.WeightFlows)
}

// sortDRAMFlows orders flows by compareDRAMFlow. The analysis emits DRAM
// flows layer by layer, so while the layers arrive in ascending runs each
// run is sorted on its own; a layer out of order falls back to sorting the
// whole slice. Either way the result is the single-sort sequence.
func sortDRAMFlows(flows []DRAMFlow) {
	lo := 0
	for i := 1; i <= len(flows); i++ {
		if i < len(flows) && flows[i].Layer == flows[lo].Layer {
			continue
		}
		if i < len(flows) && flows[i].Layer < flows[lo].Layer {
			slices.SortFunc(flows, compareDRAMFlow)
			return
		}
		if i-lo > 1 {
			slices.SortFunc(flows[lo:i], compareDRAMFlow)
		}
		lo = i
	}
}

// sortActFlows orders ActFlows by (Src, Bytes, Dsts). A counting pass
// buckets the flows by source core into flowBuf, then each bucket is sorted
// on (Bytes, Dsts) alone. The order is total up to flows equal in every
// field, so the result is the same sequence a single comparison sort gives.
func (an *Analysis) sortActFlows() {
	flows := an.ActFlows
	if len(flows) < 2 {
		return
	}
	end := resize(an.srcEnd, len(an.inBytes))
	an.srcEnd = end
	clear(end)
	for _, f := range flows {
		end[f.Src]++
	}
	// Prefix sums: end[c] becomes the start of bucket c, and the scatter
	// below advances it to the bucket's end.
	sum := int32(0)
	for c, k := range end {
		end[c] = sum
		sum += k
	}
	buf := resize(an.flowBuf, len(flows))
	for _, f := range flows {
		buf[end[f.Src]] = f
		end[f.Src]++
	}
	lo := int32(0)
	for _, hi := range end {
		if hi-lo > 1 {
			slices.SortFunc(buf[lo:hi], compareFlowPayload)
		}
		lo = hi
	}
	an.ActFlows, an.flowBuf = buf, flows
}

// compareFlowPayload orders core flows of one source by (Bytes, Dsts).
func compareFlowPayload(x, y CoreFlow) int {
	if x.Bytes != y.Bytes {
		if x.Bytes < y.Bytes {
			return -1
		}
		return 1
	}
	return compareCores(x.Dsts, y.Dsts)
}

// compareDRAMFlow orders DRAM flows by (Layer, Ctrl, Write, Bytes, Cores).
func compareDRAMFlow(x, y DRAMFlow) int {
	if x.Layer != y.Layer {
		return x.Layer - y.Layer
	}
	if x.Ctrl != y.Ctrl {
		return x.Ctrl - y.Ctrl
	}
	if x.Write != y.Write {
		if y.Write {
			return -1
		}
		return 1
	}
	if x.Bytes != y.Bytes {
		if x.Bytes < y.Bytes {
			return -1
		}
		return 1
	}
	return compareCores(x.Cores, y.Cores)
}

// compareCores orders core lists lexicographically, a proper prefix first.
func compareCores(a, b []arch.CoreID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// analyzeEdge infers the flows feeding layer l through one input edge.
func (an *Analysis) analyzeEdge(s *Scheme, l *dnn.Layer, ms *MS, edge dnn.Input) error {
	g := s.Graph

	var srcOH, srcOW, srcOK int
	var prodMS *MS
	switch {
	case edge.Src == dnn.ExternalInput:
		srcOH, srcOW, srcOK = l.IH(), l.IW(), l.IC
	default:
		pl := g.Layer(edge.Src)
		srcOH, srcOW, srcOK = pl.OH, pl.OW, pl.OK
		prodMS = an.group[edge.Src]
	}

	// Consumer needs, grouped by identical region for multicast dedup.
	an.needs = an.needs[:0]
	for _, pi := range an.ByLayer[ms.Layer] {
		pw := &an.PWs[pi]
		reg := l.NeededRegion(edge, pw.HR, pw.WR, pw.BR, pw.KR, srcOH, srcOW, srcOK)
		v := reg.Vol()
		if v == 0 {
			continue
		}
		an.inBytes[pw.Core] += v * dnn.ElemBytes
		ni := -1
		for i := range an.needs {
			if an.needs[i].region == reg {
				ni = i
				break
			}
		}
		if ni < 0 {
			an.needs = growNeed(an.needs, reg)
			ni = len(an.needs) - 1
		}
		an.needs[ni].cores = appendUnique(an.needs[ni].cores, pw.Core)
	}

	if prodMS == nil {
		// Data comes from DRAM: the DNN input's explicit IF, or the DRAM
		// where the cross-group producer stored its ofmaps.
		ctrl := 0
		if edge.Src == dnn.ExternalInput {
			ctrl = fdCtrl(ms.FD.IF)
		} else if of, ok := an.ofDRAM[edge.Src]; ok {
			ctrl = fdCtrl(of)
		} else {
			// Producer group not present (e.g. the graph-partition engine
			// scoring an isolated segment): assume interleaved storage.
			ctrl = -1
		}
		for i := range an.needs {
			n := &an.needs[i]
			an.ActDRAM = append(an.ActDRAM, DRAMFlow{
				Layer: ms.Layer,
				Ctrl:  ctrl,
				Cores: an.internCores(n.cores...),
				Bytes: float64(n.region.Vol()) * dnn.ElemBytes,
			})
		}
		return nil
	}

	// In-group producer: intersect each consumer need with every producer
	// workload's owned region; identical payloads from one producer core to
	// several consumers become one multicast flow.
	for i := range an.needs {
		n := &an.needs[i]
		for _, qi := range an.ByLayer[edge.Src] {
			q := &an.PWs[qi]
			ovl := dnn.EdgeRegion{
				H: n.region.H.Intersect(q.HR),
				W: n.region.W.Intersect(q.WR),
				B: n.region.B.Intersect(q.BR),
				K: n.region.K.Intersect(q.KR),
			}
			v := ovl.Vol()
			if v == 0 {
				continue
			}
			start := len(an.coreArena)
			for _, c := range n.cores {
				if c != q.Core {
					an.coreArena = append(an.coreArena, c)
				}
			}
			if len(an.coreArena) == start {
				continue // produced and consumed on the same core
			}
			an.ActFlows = append(an.ActFlows, CoreFlow{
				Src:   q.Core,
				Dsts:  an.coreArena[start:len(an.coreArena):len(an.coreArena)],
				Bytes: float64(v) * dnn.ElemBytes,
			})
		}
	}
	return nil
}

// reducedChannels returns the input channels reduced per output element.
func reducedChannels(l *dnn.Layer) int {
	switch l.Kind {
	case dnn.Conv:
		gr := l.Groups
		if gr <= 0 {
			gr = 1
		}
		return maxInt(l.IC/gr, 1)
	case dnn.FC, dnn.MatMul:
		return l.IC
	default:
		return 1
	}
}

// partMACs returns the exact MAC count of an output sub-volume.
func partMACs(l *dnn.Layer, vol int64) int64 {
	switch l.Kind {
	case dnn.Conv:
		return vol * int64(reducedChannels(l)) * int64(l.R) * int64(l.S)
	case dnn.FC, dnn.MatMul:
		return vol * int64(l.IC)
	}
	return 0
}

// partVecOps returns the vector-unit operations of an output sub-volume.
func partVecOps(l *dnn.Layer, vol int64) int64 {
	switch l.Kind {
	case dnn.Pool:
		return vol * int64(l.R) * int64(l.S)
	case dnn.Eltwise:
		return vol * int64(maxInt(len(l.Inputs), 2))
	case dnn.Softmax:
		return vol * 3
	}
	return vol * int64(l.FusedOps)
}

// groupDepth returns the longest dependency chain within the group. depth
// is a caller-provided (cleared) scratch map.
func groupDepth(g *dnn.Graph, group map[int]*MS, depth map[int]int) int {
	best := 0
	for _, l := range g.Layers { // topological order
		if _, ok := group[l.ID]; !ok {
			continue
		}
		d := 1
		for _, in := range l.Inputs {
			if in.Src >= 0 {
				if pd, ok := depth[in.Src]; ok && pd+1 > d {
					d = pd + 1
				}
			}
		}
		depth[l.ID] = d
		if d > best {
			best = d
		}
	}
	return best
}

func appendUnique(s []arch.CoreID, c arch.CoreID) []arch.CoreID {
	for _, v := range s {
		if v == c {
			return s
		}
	}
	return append(s, c)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
