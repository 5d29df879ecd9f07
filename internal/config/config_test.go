package config

import (
	"strings"
	"testing"
)

func TestGTX480MatchesTableI(t *testing.T) {
	c := GTX480()
	if err := c.Validate(); err != nil {
		t.Fatalf("GTX480 config invalid: %v", err)
	}
	// Table I of the paper.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"NumSMs", c.NumSMs, 14},
		{"MaxTBsPerSM", c.MaxTBsPerSM, 8},
		{"MaxThreadsPerSM", c.MaxThreadsPerSM, 1536},
		{"SharedMemPerSM", c.SharedMemPerSM, 48 * 1024},
		{"L1Size", c.L1Size, 16 * 1024},
		{"L2Size", c.L2Size, 768 * 1024},
		{"RegistersPerSM", c.RegistersPerSM, 32768},
		{"SchedulersPerSM", c.SchedulersPerSM, 2},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d (Table I)", ch.name, ch.got, ch.want)
		}
	}
	if got := c.MaxWarpsPerSM(); got != 48 {
		t.Errorf("MaxWarpsPerSM = %d, want 48 (Fermi)", got)
	}
}

func TestValidateCatchesEachBrokenField(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
		frag   string
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }, "NumSMs"},
		{"zero TBs", func(c *Config) { c.MaxTBsPerSM = 0 }, "MaxTBsPerSM"},
		{"tiny threads", func(c *Config) { c.MaxThreadsPerSM = 16 }, "warp"},
		{"unaligned threads", func(c *Config) { c.MaxThreadsPerSM = 1537 }, "multiple"},
		{"zero schedulers", func(c *Config) { c.SchedulersPerSM = 0 }, "SchedulersPerSM"},
		{"negative smem", func(c *Config) { c.SharedMemPerSM = -1 }, "SharedMemPerSM"},
		{"zero regs", func(c *Config) { c.RegistersPerSM = 0 }, "RegistersPerSM"},
		{"zero alu", func(c *Config) { c.ALULatency = 0 }, "ALULatency"},
		{"non-pow2 line", func(c *Config) { c.L1Line = 96 }, "power of two"},
		{"odd L1", func(c *Config) { c.L1Size = 1000 }, "divisible"},
		{"zero mshr", func(c *Config) { c.L1MSHRs = 0 }, "MSHR"},
		{"zero hitlat", func(c *Config) { c.L1HitLatency = 0 }, "L1HitLatency"},
		{"zero storebuf", func(c *Config) { c.StoreBufferPerSM = 0 }, "StoreBufferPerSM"},
		{"odd parts", func(c *Config) { c.L2Partitions = 7 }, "partition"},
		{"row miss lt hit", func(c *Config) { c.DRAMRowMiss = c.DRAMRowHit - 1 }, "DRAMRowMiss"},
		{"small row", func(c *Config) { c.DRAMRowBytes = 64 }, "DRAMRowBytes"},
		{"zero ibuf", func(c *Config) { c.IBufferEntries = 0 }, "IBufferEntries"},
		{"zero banks", func(c *Config) { c.SharedBanks = 0 }, "SharedBanks must be positive"},
		{"128 banks", func(c *Config) { c.SharedBanks = 128 }, "SharedBanks must be at most 64"},
		{"warps not divisible", func(c *Config) { c.SchedulersPerSM = 5 }, "schedulers"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := GTX480()
			m.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate accepted broken config (%s)", m.name)
			}
			if !strings.Contains(err.Error(), m.frag) {
				t.Errorf("error %q does not mention %q", err, m.frag)
			}
		})
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := GTX480()
	b := a.Clone()
	b.NumSMs = 99
	if a.NumSMs == 99 {
		t.Fatal("Clone shares state with the original")
	}
}
