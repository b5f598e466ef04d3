package noc

import (
	"testing"

	"gemini/internal/arch"
)

// oraclePortCore is the original per-call scan behind PortCore: the
// attachment core of the controller nearest the peer's row, first in port
// order on ties.
func oraclePortCore(cfg *arch.Config, ports []arch.DRAMPort, ctrl int, peer arch.CoreID) arch.CoreID {
	p := ports[ctrl%len(ports)]
	_, py := cfg.CoreXY(peer)
	best := p.Cores[0]
	bestD := 1 << 30
	for _, c := range p.Cores {
		_, cy := cfg.CoreXY(c)
		d := cy - py
		if d < 0 {
			d = -d
		}
		if d < bestD {
			bestD = d
			best = c
		}
	}
	return best
}

// TestPortTableMatchesScan: the port table New precomputes answers every
// (controller, peer) pair — including wrapped controller indices — exactly
// as the per-call scan did, on every preset, on odd shapes where
// controllers span several rows, and with more controllers than rows.
func TestPortTableMatchesScan(t *testing.T) {
	cfgs := []arch.Config{arch.Simba(), arch.GArch72(), arch.Grayskull(), arch.GArchTorus()}
	odd := arch.GArch72()
	odd.Name, odd.CoresX, odd.CoresY, odd.XCut, odd.YCut, odd.DRAMBW = "7x5", 7, 5, 1, 1, 200
	wide := arch.GArch72()
	wide.Name, wide.CoresX, wide.CoresY, wide.XCut, wide.YCut, wide.DRAMBW = "9x2", 9, 2, 3, 2, 64
	crowded := arch.GArch72()
	crowded.Name, crowded.CoresX, crowded.CoresY, crowded.XCut, crowded.YCut, crowded.DRAMBW = "8x4", 8, 4, 1, 1, 1024
	cfgs = append(cfgs, odd, wide, crowded)
	for _, cfg := range cfgs {
		n := New(&cfg)
		ports := cfg.DRAMPorts()
		for ctrl := 0; ctrl < 2*len(ports); ctrl++ {
			for peer := 0; peer < cfg.Cores(); peer++ {
				got := n.PortCore(ctrl, arch.CoreID(peer))
				want := oraclePortCore(&cfg, ports, ctrl, arch.CoreID(peer))
				if got != want {
					t.Fatalf("%s: PortCore(%d, %d) = %d, scan gives %d", cfg.Name, ctrl, peer, got, want)
				}
			}
		}
	}
}
