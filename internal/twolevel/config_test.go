package twolevel

import (
	"fmt"
	"testing"

	"regcache/internal/core"
)

// TestConfigDefaultsTable pins the zero-value defaulting rules the sweep
// configs and the service's scheme records depend on: any explicitly set
// field survives defaulting, any zero field takes the documented default.
func TestConfigDefaultsTable(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"all-zero", Config{},
			Config{L1Entries: 96, L2Latency: 2, CopyBandwidth: 4, FreeThreshold: 12, RefillSlack: 6}},
		{"l1-only", Config{L1Entries: 48},
			Config{L1Entries: 48, L2Latency: 2, CopyBandwidth: 4, FreeThreshold: 12, RefillSlack: 6}},
		{"latency-only", Config{L2Latency: 5},
			Config{L1Entries: 96, L2Latency: 5, CopyBandwidth: 4, FreeThreshold: 12, RefillSlack: 6}},
		{"fully-specified", Config{L1Entries: 64, L2Latency: 3, CopyBandwidth: 2, FreeThreshold: 8, RefillSlack: 4},
			Config{L1Entries: 64, L2Latency: 3, CopyBandwidth: 2, FreeThreshold: 8, RefillSlack: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(tc.in, 512)
			if got := f.cfg; got != tc.want {
				t.Errorf("Config() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestOccupancyAccounting drives allocate/free cycles across a table of L1
// sizes and checks the occupancy counter and CanAllocate agree with the
// capacity at every step — the rename-stall decision reads exactly these.
func TestOccupancyAccounting(t *testing.T) {
	for _, entries := range []int{4, 16, 96} {
		entries := entries
		t.Run(fmt.Sprintf("l1-%d", entries), func(t *testing.T) {
			f := New(Config{L1Entries: entries, FreeThreshold: 1}, 512)
			for i := 0; i < entries; i++ {
				if !f.CanAllocate() {
					t.Fatalf("CanAllocate false at occupancy %d/%d", f.occupied, entries)
				}
				f.Allocate(core.PReg(i))
				f.Produced(core.PReg(i)) // the L1 slot is claimed at produce
			}
			if f.CanAllocate() {
				t.Fatalf("CanAllocate true at full occupancy %d", f.occupied)
			}
			if f.occupied != entries {
				t.Fatalf("Occupied = %d, want %d", f.occupied, entries)
			}
			for i := 0; i < entries; i++ {
				f.Free(core.PReg(i))
			}
			if f.occupied != 0 {
				t.Fatalf("Occupied = %d after freeing all, want 0", f.occupied)
			}
			if !f.CanAllocate() {
				t.Fatalf("CanAllocate false on empty file")
			}
		})
	}
}
