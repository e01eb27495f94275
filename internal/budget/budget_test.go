package budget

import "testing"

func TestTokensSpendAndRefill(t *testing.T) {
	tk := NewTokens(100, 100, 1)
	if got := tk.SampleSize(1000); got != 100 {
		t.Errorf("first interval = %d, want 100 (full bucket)", got)
	}
	// Bucket was emptied then refilled with Rate=100.
	if got := tk.SampleSize(1000); got != 100 {
		t.Errorf("steady state = %d, want 100", got)
	}
}

func TestTokensRollover(t *testing.T) {
	tk := NewTokens(100, 300, 1)
	// Cheap interval: only 20 items available.
	if got := tk.SampleSize(20); got != 20 {
		t.Errorf("cheap interval = %d", got)
	}
	// Unspent tokens roll over: bucket was 300-20+100 = 300 (capped).
	if got := tk.SampleSize(1000); got != 300 {
		t.Errorf("rollover interval = %d, want 300", got)
	}
}

func TestTokensCostPerItem(t *testing.T) {
	tk := NewTokens(100, 100, 2)
	if got := tk.SampleSize(1000); got != 50 {
		t.Errorf("cost 2/item = %d items, want 50", got)
	}
}

func TestTokensFloorOfOne(t *testing.T) {
	tk := NewTokens(0.1, 0.1, 1)
	if got := tk.SampleSize(1000); got != 1 {
		t.Errorf("starved bucket should still sample 1, got %d", got)
	}
	if tk.balance < 0 {
		t.Errorf("balance went negative: %v", tk.balance)
	}
}

func TestTokensDefensiveConstruction(t *testing.T) {
	tk := NewTokens(100, 10, 0)
	if tk.CostPerItem != 1 {
		t.Errorf("zero cost clamped to 1, got %v", tk.CostPerItem)
	}
	if tk.Burst != 100 {
		t.Errorf("burst < rate should clamp to rate, got %v", tk.Burst)
	}
}
