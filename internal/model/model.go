// Package model implements the malleable runtime models of the paper
// (Section 3.4): how a job's duration stretches when it runs on fewer
// cores than it statically requested.
//
// The paper expresses the models as sums over time slots of constant
// configuration (Eqs. 5 and 6). Here the same models are implemented as a
// progress/rate engine: a job carries `ActualTime` seconds of work that
// advance at a rate r(t) in [0, 1] derived from its current per-node core
// shares. For piecewise-constant configurations the two formulations are
// identical; the engine additionally handles arbitrary shrink/expand
// sequences (mates ending early, guests absorbing cores on part of their
// nodes) without special cases.
package model

import (
	"fmt"
	"math"
)

// Kind selects the runtime model.
type Kind uint8

const (
	// Ideal (Eq. 5): rate is the aggregate core fraction. Applications
	// rebalance their load perfectly across unequal per-node shares.
	Ideal Kind = iota
	// WorstCase (Eq. 6): rate is the smallest per-node core fraction.
	// Statically balanced applications advance at the pace of the most
	// shrunk node.
	WorstCase
	// App: rate follows a per-application speedup curve evaluated on the
	// smallest per-node share (statically balanced, like WorstCase, but
	// with sub-linear scalability so shrinking can be nearly free).
	// Used by the real-run emulation.
	App
)

// String returns the model name.
func (k Kind) String() string {
	switch k {
	case Ideal:
		return "ideal"
	case WorstCase:
		return "worstcase"
	case App:
		return "app"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// SpeedupFn maps a per-node core count to relative application throughput.
// It must be non-decreasing and positive for cores >= 1.
type SpeedupFn func(cores int) float64

// Rate returns the progress rate of a job that statically uses `full`
// cores on each of its nodes and currently holds shares[i] cores on node
// i. speedup is required for Kind App and ignored otherwise.
//
// Rate(k, ...) == 1 whenever every share equals full (any model), and 0
// if any share is 0 under WorstCase/App or all shares are 0 under Ideal.
func Rate(kind Kind, shares []int, full int, speedup SpeedupFn) float64 {
	if full <= 0 {
		panic(fmt.Sprintf("model: non-positive full share %d", full))
	}
	if len(shares) == 0 {
		panic("model: empty share list")
	}
	switch kind {
	case Ideal:
		total := 0
		for _, s := range shares {
			total += s
		}
		return clampRate(float64(total) / float64(len(shares)*full))
	case WorstCase:
		m := shares[0]
		for _, s := range shares[1:] {
			if s < m {
				m = s
			}
		}
		return clampRate(float64(m) / float64(full))
	case App:
		if speedup == nil {
			panic("model: App kind requires a speedup function")
		}
		m := shares[0]
		for _, s := range shares[1:] {
			if s < m {
				m = s
			}
		}
		if m <= 0 {
			return 0
		}
		return clampRate(speedup(m) / speedup(full))
	}
	panic(fmt.Sprintf("model: unknown kind %d", kind))
}

func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// UniformRate returns the rate for a job holding the same share on every
// node — the common SD-Policy configuration right after a malleable start.
func UniformRate(kind Kind, share, full int, speedup SpeedupFn) float64 {
	return Rate(kind, []int{share}, full, speedup)
}

// Increase returns the extra wall-clock seconds ("increase" in Listing 1
// and Eq. 4) a job of duration dur suffers when running at constant rate
// r for its whole life: dur/r - dur. It returns +Inf for r == 0.
func Increase(dur int64, r float64) float64 {
	if dur < 0 {
		panic(fmt.Sprintf("model: negative duration %d", dur))
	}
	if r <= 0 {
		return math.Inf(1)
	}
	if r > 1 {
		r = 1
	}
	return float64(dur)/r - float64(dur)
}

// MateIncrease returns the extra wall-clock seconds a mate suffers when
// it runs at rate r for the `hosting` seconds it spends shrunk: the
// progress lost is hosting*(1-r), recovered at full rate after expansion.
func MateIncrease(hosting int64, r float64) float64 {
	if hosting < 0 {
		panic(fmt.Sprintf("model: negative hosting time %d", hosting))
	}
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	return float64(hosting) * (1 - r)
}

// Progress tracks how much of a job's work is done under a time-varying
// rate. All times are simulation seconds.
type Progress struct {
	total float64 // seconds of work at rate 1
	done  float64
	rate  float64
	since int64
}

// NewProgress returns a tracker for `total` seconds of work starting at
// time now with rate 1.
func NewProgress(now int64, total float64) *Progress {
	if total <= 0 {
		panic(fmt.Sprintf("model: non-positive work %v", total))
	}
	return &Progress{total: total, rate: 1, since: now}
}

// doneAt returns the completed work as of time now without mutating the
// tracker, so queries may arrive in any order at or after the last
// SetRate.
func (p *Progress) doneAt(now int64) float64 {
	if now < p.since {
		panic(fmt.Sprintf("model: progress queried before last update: %d < %d", now, p.since))
	}
	d := p.done + p.rate*float64(now-p.since)
	if d > p.total {
		d = p.total
	}
	return d
}

// advance accumulates work up to time now.
func (p *Progress) advance(now int64) {
	p.done = p.doneAt(now)
	p.since = now
}

// SetRate changes the progress rate from time now on.
func (p *Progress) SetRate(now int64, r float64) {
	if r < 0 || r > 1 || math.IsNaN(r) {
		panic(fmt.Sprintf("model: rate %v out of [0,1]", r))
	}
	p.advance(now)
	p.rate = r
}

// Done returns the completed work in rate-1 seconds as of time now.
func (p *Progress) Done(now int64) float64 {
	return p.doneAt(now)
}

// RemainingWall returns the wall-clock seconds left at the current rate,
// rounded up to whole seconds. It returns math.MaxInt64 when the rate is
// zero and work remains.
func (p *Progress) RemainingWall(now int64) int64 {
	left := p.total - p.doneAt(now)
	if left <= 1e-9 {
		return 0
	}
	if p.rate <= 0 {
		return math.MaxInt64
	}
	w := math.Ceil(left / p.rate)
	if w < 1 {
		w = 1
	}
	if w >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(w)
}

// Finished reports whether all work is done as of time now.
func (p *Progress) Finished(now int64) bool {
	return p.total-p.doneAt(now) <= 1e-9
}
