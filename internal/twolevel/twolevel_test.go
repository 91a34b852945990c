package twolevel

import (
	"testing"

	"regcache/internal/core"
)

func small() *File {
	return New(Config{L1Entries: 4, L2Latency: 2, CopyBandwidth: 2, FreeThreshold: 2, RefillSlack: 1}, 16)
}

func TestProductionFillsL1(t *testing.T) {
	f := small()
	for p := core.PReg(0); p < 4; p++ {
		if !f.CanAllocate() {
			t.Fatalf("allocation %d refused", p)
		}
		f.Allocate(p)
	}
	// Slots are claimed at production, not rename.
	if f.occupied != 0 {
		t.Fatalf("occupied = %d before production, want 0", f.occupied)
	}
	for p := core.PReg(0); p < 4; p++ {
		f.Produced(p)
	}
	if f.occupied != 4 || f.CanAllocate() {
		t.Fatal("full L1 should refuse allocation")
	}
	// Double production is idempotent.
	f.Produced(0)
	if f.occupied != 4 {
		t.Fatal("double production changed occupancy")
	}
	f.Free(0)
	if !f.CanAllocate() {
		t.Fatal("free should enable allocation")
	}
}

func TestMigrationRequiresDeadness(t *testing.T) {
	f := small()
	for p := core.PReg(0); p < 3; p++ { // free=1 < threshold=2: migration active
		f.Allocate(p)
		f.Produced(p)
	}
	// preg 0: produced but still has a pending consumer -> not migratable.
	f.Remapped(0)
	f.AddConsumer(0)
	f.Tick()
	if f.Migrations != 0 {
		t.Fatal("value with pending consumer migrated")
	}
	// Consumer executes: now migratable.
	f.ConsumerDone(0)
	f.Tick()
	if f.Migrations != 1 || f.occupied != 2 {
		t.Fatalf("migrations=%d occupied=%d, want 1/2", f.Migrations, f.occupied)
	}
}

func TestMigrationRequiresRemap(t *testing.T) {
	f := small()
	for p := core.PReg(0); p < 3; p++ {
		f.Allocate(p)
		f.Produced(p)
	}
	f.Tick()
	if f.Migrations != 0 {
		t.Fatal("un-remapped value migrated")
	}
	f.Remapped(1)
	f.Unremapped(1) // squash of the redefining instruction
	f.Tick()
	if f.Migrations != 0 {
		t.Fatal("unremapped value migrated")
	}
}

func TestMigrationOnlyBelowThreshold(t *testing.T) {
	f := small()
	f.Allocate(0) // free = 3 >= threshold 2: no migration pressure
	f.Produced(0)
	f.Remapped(0)
	f.Tick()
	if f.Migrations != 0 {
		t.Fatal("migrated with ample free registers")
	}
}

func TestMigrationBandwidthCap(t *testing.T) {
	f := small()
	for p := core.PReg(0); p < 4; p++ {
		f.Allocate(p)
		f.Produced(p)
		f.Remapped(p)
	}
	f.Tick()
	if f.Migrations != 2 {
		t.Fatalf("migrations = %d, want bandwidth cap 2", f.Migrations)
	}
}

func TestRecoverCopiesAndStall(t *testing.T) {
	f := small()
	for p := core.PReg(0); p < 3; p++ {
		f.Allocate(p)
		f.Produced(p)
		f.Remapped(p)
	}
	f.Tick() // migrates 2 values to L2
	if f.occupied != 1 {
		t.Fatalf("occupied = %d, want 1", f.occupied)
	}
	// Recovery makes pregs 0 and 1 visible again: 2 copies at bw 2 = 1
	// cycle + L2 latency 2 = 3 cycles, minus 1 slack = 2 stall cycles.
	stall := f.Recover([]core.PReg{0, 1, 2})
	if stall != 2 {
		t.Fatalf("recovery stall = %d, want 2", stall)
	}
	if f.occupied != 3 || f.RecoveredValues != 2 {
		t.Fatalf("occupied=%d recovered=%d, want 3/2", f.occupied, f.RecoveredValues)
	}
	// Idempotent: values now in L1, nothing to recover.
	if f.Recover([]core.PReg{0, 1}) != 0 {
		t.Fatal("second recovery should be free")
	}
}

func TestRecoverNothingInL2(t *testing.T) {
	f := small()
	f.Allocate(0)
	f.Produced(0)
	if f.Recover([]core.PReg{0}) != 0 {
		t.Fatal("recovery with no L2 values should not stall")
	}
	if f.RecoveryEvents != 0 {
		t.Fatal("empty recovery counted as event")
	}
}

func TestFreeFromL2(t *testing.T) {
	f := small()
	for p := core.PReg(0); p < 3; p++ {
		f.Allocate(p)
		f.Produced(p)
		f.Remapped(p)
	}
	f.Tick()
	// preg 0 migrated; freeing it must not touch L1 occupancy.
	occ := f.occupied
	f.Free(0)
	if f.occupied != occ {
		t.Fatal("freeing an L2-resident value changed L1 occupancy")
	}
	// Double free is a no-op.
	f.Free(0)
}

func TestDefaults(t *testing.T) {
	f := New(Config{}, 8)
	cfg := f.cfg
	if cfg.L1Entries != 96 || cfg.CopyBandwidth != 4 || cfg.RefillSlack != 6 {
		t.Errorf("defaults = %+v", cfg)
	}
}
