// Package budget holds the resource side of §7's cost function: a
// Pulsar-style token bucket where each sampled item costs tokens and the
// refill rate is the allowance. The server's cross-query scheduler draws
// its global sample allowance from it.
package budget

// Tokens is a Pulsar-style resource budget: a token bucket refilled at
// Rate tokens per interval with capacity Burst; each sampled item costs
// CostPerItem tokens. SampleSize never exceeds the affordable item count,
// and unspent tokens roll over up to the burst cap.
type Tokens struct {
	Rate        float64
	Burst       float64
	CostPerItem float64

	balance float64
}

// NewTokens returns a token budget starting with a full bucket.
func NewTokens(rate, burst, costPerItem float64) *Tokens {
	if costPerItem <= 0 {
		costPerItem = 1
	}
	if burst < rate {
		burst = rate
	}
	return &Tokens{Rate: rate, Burst: burst, CostPerItem: costPerItem, balance: burst}
}

// SampleSize returns the number of items to sample out of an interval
// expected to carry expectedItems items: it spends tokens for the
// affordable sample and refills the bucket for the next interval.
func (t *Tokens) SampleSize(expectedItems int) int {
	if expectedItems < 1 {
		expectedItems = 1
	}
	affordable := int(t.balance / t.CostPerItem)
	n := affordable
	if n > expectedItems {
		n = expectedItems
	}
	if n < 1 {
		n = 1
	}
	t.balance -= float64(n) * t.CostPerItem
	if t.balance < 0 {
		t.balance = 0
	}
	t.balance += t.Rate
	if t.balance > t.Burst {
		t.balance = t.Burst
	}
	return n
}
