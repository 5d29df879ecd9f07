package isa

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

const sampleText = `
kernel sample
# stage, compute, write back
ld.global r1 pattern=coalesced space=0 itervaries
st.shared r1 pattern=coalesced
bar
loop min=4 max=8 imb=warp {
    ld.shared r3 pattern=strided stride=32 itervaries
    ffma r5 r3 r4 r5
    if lane<16 {
        iadd r2 r2 r1
    } else {
        imul r2 r2 r1
    }
}
if rand=0.25 {
    sfu r6 r5
}
atom.global r7 r5 pattern=tblocal region=65536 space=2
st.global r5 pattern=coalesced space=1
exit
`

func TestParseSample(t *testing.T) {
	p, err := Parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sample" {
		t.Fatalf("name = %q", p.Name)
	}
	mix := p.Mix()
	if mix.Barriers != 1 || mix.SharedMem != 2 || mix.GlobalMem != 3 || mix.SFU != 1 {
		t.Fatalf("mix = %+v", mix)
	}
	if len(p.Loops) != 1 || p.Loops[0].Imb != ImbPerWarp || p.Loops[0].Min != 4 || p.Loops[0].Max != 8 {
		t.Fatalf("loops = %+v", p.Loops)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, frag string
	}{
		{"no kernel", "iadd r1 r1 r1\nexit\n", "must start"},
		{"dup kernel", "kernel a\nkernel b\nexit\n", "duplicate"},
		{"bad reg", "kernel a\niadd rx r1 r1\nexit\n", "bad register"},
		{"reg range", "kernel a\niadd r99 r1 r1\nexit\n", "bad register"},
		{"missing pattern", "kernel a\nld.global r1\nexit\n", "pattern"},
		{"bad pattern", "kernel a\nld.global r1 pattern=zig\nexit\n", "unknown pattern"},
		{"bad attr", "kernel a\nld.global r1 pattern=random zap=3\nexit\n", "unknown memory attribute"},
		{"loop no brace", "kernel a\nloop min=1 max=1\n}\nexit\n", "'{'"},
		{"loop no bounds", "kernel a\nloop imb=none {\niadd r1 r1 r1\n}\nexit\n", "min="},
		{"bad imb", "kernel a\nloop min=1 max=1 imb=zebra {\n}\nexit\n", "unknown imbalance"},
		{"bad cond", "kernel a\nif weird {\n}\nexit\n", "unknown condition"},
		{"unmatched close", "kernel a\n}\nexit\n", "unmatched"},
		{"else on loop", "kernel a\nloop min=1 max=1 {\n} else {\n}\nexit\n", "else on a loop"},
		{"unclosed", "kernel a\nloop min=1 max=1 {\niadd r1 r1 r1\nexit\n", "unclosed"},
		{"unknown op", "kernel a\nfrobnicate r1\nexit\n", "unknown directive"},
		{"empty", "", "empty"},
		{"bad close", "kernel a\nif lane<4 {\n} garbage\nexit\n", "bad region close"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.text)
			if err == nil {
				t.Fatal("Parse accepted malformed text")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q lacks %q", err, c.frag)
			}
		})
	}
}

// equalPrograms compares everything the simulator observes.
func equalPrograms(a, b *Program) bool {
	if a.Name != b.Name || len(a.Code) != len(b.Code) || len(a.Loops) != len(b.Loops) {
		return false
	}
	for i := range a.Loops {
		if a.Loops[i] != b.Loops[i] {
			return false
		}
	}
	for i := range a.Code {
		x, y := a.Code[i], b.Code[i]
		if x.Op != y.Op || x.Dst != y.Dst || x.Srcs != y.Srcs {
			return false
		}
		switch {
		case (x.Mem == nil) != (y.Mem == nil):
			return false
		case x.Mem != nil && *x.Mem != *y.Mem:
			return false
		case (x.Branch == nil) != (y.Branch == nil):
			return false
		case x.Branch != nil && *x.Branch != *y.Branch:
			return false
		}
	}
	return true
}

func TestFormatParseRoundTripSample(t *testing.T) {
	p, err := Parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(p)
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\ntext:\n%s", err, text)
	}
	if !equalPrograms(p, q) {
		t.Fatalf("round trip changed the program:\noriginal:\n%s\nreparsed:\n%s", Format(p), Format(q))
	}
}

func TestFormatParseRoundTripWorkloadShapes(t *testing.T) {
	// Build a program with every construct the builder offers and check
	// the round trip.
	b := NewBuilder("everything")
	b.Nop()
	b.LdConst(1)
	b.Loop(LoopSpec{Min: 2, Max: 2})
	b.Loop(LoopSpec{Min: 3, Max: 5, Imb: ImbPerThread})
	b.FFMA(2, 1, 1, 2)
	b.EndLoop()
	b.IfWarpRandom(0.5)
	b.FAdd(3, 2, 1)
	b.EndIf()
	b.EndLoop()
	b.IfLaneLess(8)
	b.IfRandom(0.125)
	b.IMul(4, 3, 3)
	b.EndIf()
	b.Else()
	b.FMul(5, 4, 4)
	b.EndIf()
	b.StGlobal(5, MemSpec{Pattern: PatBroadcast, Space: 3})
	b.Exit()
	p := b.MustBuild()
	q, err := Parse(Format(p))
	if err != nil {
		t.Fatalf("%v\n%s", err, Format(p))
	}
	if !equalPrograms(p, q) {
		t.Fatalf("round trip changed the program:\n%s\nvs\n%s", Format(p), Format(q))
	}
}

// TestPropertyRoundTripRandomPrograms: Format∘Parse is the identity on
// randomly generated structured programs.
func TestPropertyRoundTripRandomPrograms(t *testing.T) {
	gen := func(rng *xrand.RNG) *Program {
		b := NewBuilder("rt")
		var emit func(depth, budget int)
		emit = func(depth, budget int) {
			for i := 0; i < budget; i++ {
				switch c := rng.Intn(7); {
				case c <= 2 || depth >= 3:
					b.IAdd(Reg(1+rng.Intn(10)), Reg(1+rng.Intn(10)), Reg(1+rng.Intn(10)))
				case c == 3:
					b.LdGlobal(Reg(1+rng.Intn(10)), MemSpec{
						Pattern:    AccessPattern(rng.Intn(5)),
						Stride:     4 * (1 + rng.Intn(8)),
						Region:     uint64(1024 << rng.Intn(4)),
						Space:      uint8(rng.Intn(4)),
						IterVaries: rng.Intn(2) == 0,
					})
				case c == 4:
					b.Loop(LoopSpec{Min: 1 + rng.Intn(3), Max: 1 + rng.Intn(3) + 3, Imb: Imbalance(rng.Intn(4))})
					emit(depth+1, 1+rng.Intn(2))
					b.EndLoop()
				case c == 5:
					b.IfLaneLess(1 + rng.Intn(31))
					emit(depth+1, 1+rng.Intn(2))
					if rng.Intn(2) == 0 {
						b.Else()
						emit(depth+1, 1+rng.Intn(2))
					}
					b.EndIf()
				default:
					b.SFU(Reg(1+rng.Intn(10)), Reg(1+rng.Intn(10)))
				}
			}
		}
		emit(0, 3+rng.Intn(6))
		b.Exit()
		return b.MustBuild()
	}
	f := func(seed uint64) bool {
		p := gen(xrand.NewRNG(seed | 1))
		q, err := Parse(Format(p))
		if err != nil {
			t.Logf("seed %d: %v\n%s", seed, err, Format(p))
			return false
		}
		if !equalPrograms(p, q) {
			t.Logf("seed %d round trip mismatch:\n%s\nvs\n%s", seed, Format(p), Format(q))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatTableIIWorkloadsRoundTrip(t *testing.T) {
	// Every Table II program must survive the round trip; guards the
	// formatter against constructs used by the real suite. (The suite
	// lives in another package; rebuild one representative here and
	// leave the full check to the workloads tests.)
	p, err := Parse(Format(mustSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 {
		t.Fatal("empty")
	}
}

func mustSample(t *testing.T) *Program {
	t.Helper()
	p, err := Parse(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzParse: Parse never panics on any text, and every program it
// accepts survives Format: Parse(Format(p)) succeeds and equals p.
// `make fuzz` runs it for 10 s; the seeds run under plain `go test`.
func FuzzParse(f *testing.F) {
	f.Add(sampleText)
	for _, s := range []string{
		"kernel k\nexit",
		"kernel k\nif rand=NaN {\nnop\n}\nexit",
		"kernel k\nif wrand=1e-7 {\nnop\n} else {\nnop\n}\nexit",
		"kernel k\nloop min=1 max=3 imb=thread {\nbar\n}\nexit",
		"kernel k\nif lane<-1 {\nnop\n}\nexit",
		"kernel k\n}\nexit",
		"kernel k\nif lane<4 {\nexit",
		"kernel k\nld.global r300 pattern=random region=0\nexit",
		"kernel k\nst.shared r1 pattern=strided stride=-4 space=256\nexit\nexit",
		"kernel",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return
		}
		out := Format(p)
		q, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse accepted\n%s\nbut not its Format\n%s\n: %v", text, out, err)
		}
		if !equalPrograms(p, q) {
			t.Fatalf("Parse(Format(p)) != p for\n%s\nformatted as\n%s", text, out)
		}
	})
}
