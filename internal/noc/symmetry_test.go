// Metamorphic tests of the link graph. A k×m folded torus is the Cayley
// graph of Z_k×Z_m, so translating every core is a graph automorphism; a
// translation by whole chiplet periods also maps chiplets onto chiplets, so
// D2D links stay D2D, and one that fixes the DRAM-controller attachment set
// is a symmetry of the whole template. A mesh has reflections instead. Core
// assignments moved by such a symmetry must cost exactly the same hops and
// NoC/D2D energy.
package noc_test

import (
	"math/rand"
	"testing"

	"gemini/internal/arch"
	"gemini/internal/eval"
	"gemini/internal/noc"
)

type coreMap func(arch.CoreID) arch.CoreID

// fixesDRAM reports whether f maps the set of DRAM attachment cores onto
// itself (controllers may trade places; the set may not move).
func fixesDRAM(cfg *arch.Config, f coreMap) bool {
	set := map[arch.CoreID]bool{}
	for _, p := range cfg.DRAMPorts() {
		for _, c := range p.Cores {
			set[c] = true
		}
	}
	for c := range set {
		if !set[f(c)] {
			return false
		}
	}
	return true
}

// flow is one core-to-core transfer: a unicast when len(dsts) == 1.
type flow struct {
	src   arch.CoreID
	dsts  []arch.CoreID
	bytes float64
}

func randomFlows(cfg *arch.Config, seed int64, n int) []flow {
	rng := rand.New(rand.NewSource(seed))
	core := func() arch.CoreID { return arch.CoreID(rng.Intn(cfg.Cores())) }
	flows := make([]flow, n)
	for i := range flows {
		flows[i] = flow{src: core(), bytes: float64(1 + rng.Intn(1<<16))}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			flows[i].dsts = append(flows[i].dsts, core())
		}
	}
	return flows
}

// cost accumulates the flows with every core moved by f and returns the
// byte-hops and the NoC/D2D transfer energy at the default parameters.
func cost(n *noc.Network, flows []flow, f coreMap) (hops, d2dHops, nocJ, d2dJ float64) {
	tr := n.NewTraffic()
	var dsts []arch.CoreID
	for _, fl := range flows {
		dsts = dsts[:0]
		for _, d := range fl.dsts {
			dsts = append(dsts, f(d))
		}
		tr.AddMulticast(f(fl.src), dsts, fl.bytes)
	}
	p := eval.DefaultParams()
	hops, d2dHops, _ = tr.TotalBytes()
	return hops, d2dHops, hops * (p.NoCHoppJPerByte + p.RouterpJPerByte) * 1e-12,
		d2dHops * (p.D2DpJPerByte + p.RouterpJPerByte) * 1e-12
}

// d2dCount is the number of chiplet-crossing links on the src->dst route.
func d2dCount(n *noc.Network, src, dst arch.CoreID) int {
	k := 0
	for _, l := range n.Route(src, dst) {
		if n.Links[l].D2D {
			k++
		}
	}
	return k
}

// checkSymmetry asserts that f preserves every pair's hop count and, for
// every pair tie(src, dst) does not exempt, its D2D hop count; and that the
// byte-hops and energies of random flow sets among non-exempt pairs are
// bit-identical.
func checkSymmetry(t *testing.T, cfg *arch.Config, f coreMap, tie func(src, dst arch.CoreID) bool) {
	t.Helper()
	n := noc.New(cfg)
	for s := arch.CoreID(0); int(s) < cfg.Cores(); s++ {
		for d := arch.CoreID(0); int(d) < cfg.Cores(); d++ {
			if a, b := len(n.Route(s, d)), len(n.Route(f(s), f(d))); a != b {
				t.Fatalf("%d->%d: %d hops, %d after the map", s, d, a, b)
			}
			if a, b := d2dCount(n, s, d), d2dCount(n, f(s), f(d)); a != b && !tie(s, d) {
				t.Fatalf("%d->%d: %d D2D hops, %d after the map", s, d, a, b)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		var flows []flow
		for _, fl := range randomFlows(cfg, seed, 64) {
			keep := true
			for _, d := range fl.dsts {
				keep = keep && !tie(fl.src, d)
			}
			if keep {
				flows = append(flows, fl)
			}
		}
		id := func(c arch.CoreID) arch.CoreID { return c }
		h0, d0, n0, e0 := cost(n, flows, id)
		h1, d1, n1, e1 := cost(n, flows, f)
		if h0 != h1 || d0 != d1 || n0 != n1 || e0 != e1 {
			t.Fatalf("seed %d (%d flows): hops %v/%v D2D %v/%v, energy NoC %v/%v D2D %v/%v",
				seed, len(flows), h0, h1, d0, d1, n0, n1, e0, e1)
		}
		if d0 == 0 {
			t.Fatalf("seed %d: no flow crossed a chiplet boundary; the check is vacuous", seed)
		}
	}
}

// TestTorusTranslationSymmetry translates G-Arch-Torus by every
// whole-chiplet period that fixes the DRAM attachment set. Dimension-ordered
// routing takes the shorter way round each ring; at an exact half-ring
// offset both ways are shortest and the route breaks the tie by the sign of
// the raw coordinate difference, which a translation can flip. Such pairs
// keep their hop count but may cross a different number of chiplet
// boundaries, so they are the only exemption, and the test checks that
// every D2D mismatch is one of them.
func TestTorusTranslationSymmetry(t *testing.T) {
	cfg := arch.GArchTorus()
	w, h := cfg.CoresX, cfg.CoresY
	half := func(off, size int) bool { return size > 2 && size%2 == 0 && (off+size)%size == size/2 }
	tie := func(s, d arch.CoreID) bool {
		sx, sy := cfg.CoreXY(s)
		dx, dy := cfg.CoreXY(d)
		return half(dx-sx, w) || half(dy-sy, h)
	}
	found := 0
	for tx := 0; tx < w; tx += cfg.ChipletW() {
		for ty := 0; ty < h; ty += cfg.ChipletH() {
			f := func(c arch.CoreID) arch.CoreID {
				x, y := cfg.CoreXY(c)
				return cfg.CoreAt((x+tx)%w, (y+ty)%h)
			}
			if (tx == 0 && ty == 0) || !fixesDRAM(&cfg, f) {
				continue
			}
			found++
			checkSymmetry(t, &cfg, f, tie)
		}
	}
	if found == 0 {
		t.Fatal("no non-trivial translation fixes the DRAM attachment set")
	}
}

// TestMeshReflectionSymmetry mirrors G-Arch's mesh left-right, top-bottom
// and both. Each reflection maps chiplets onto chiplets and the DRAM edge
// columns onto themselves, and a mesh route has no ties, so every pair
// keeps its hop and D2D hop counts.
func TestMeshReflectionSymmetry(t *testing.T) {
	cfg := arch.GArch72()
	w, h := cfg.CoresX, cfg.CoresY
	noTie := func(arch.CoreID, arch.CoreID) bool { return false }
	for _, m := range []struct {
		name   string
		fx, fy bool
	}{{"left-right", true, false}, {"top-bottom", false, true}, {"both", true, true}} {
		f := func(c arch.CoreID) arch.CoreID {
			x, y := cfg.CoreXY(c)
			if m.fx {
				x = w - 1 - x
			}
			if m.fy {
				y = h - 1 - y
			}
			return cfg.CoreAt(x, y)
		}
		if !fixesDRAM(&cfg, f) {
			t.Fatalf("%s reflection moves the DRAM attachment set", m.name)
		}
		t.Run(m.name, func(t *testing.T) { checkSymmetry(t, &cfg, f, noTie) })
	}
}
