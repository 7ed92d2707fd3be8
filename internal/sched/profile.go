package sched

import (
	"fmt"
	"slices"
	"sort"
)

// profile is the availability map of Listing 1's get_wait_time: a step
// function of how many whole nodes are free at each future instant,
// built from the predicted ends of running jobs and extended with the
// reservations the pass creates (conservative backfill).
type profile struct {
	totalNodes int
	now        int64
	availNow   int
	// breakpoints, sorted by time: at each time the availability changes
	// by delta.
	times  []int64
	deltas []int
}

// newProfile builds the step function. releases holds, for every busy
// node, the time it is predicted to become free (one entry per node;
// shared nodes already collapsed to their max by the caller).
func newProfile(now int64, totalNodes, freeNodes int, releases []int64) *profile {
	p := &profile{}
	sorted := make([]int64, len(releases))
	copy(sorted, releases)
	p.init(now, totalNodes, freeNodes, sorted)
	return p
}

// init (re)builds the profile in place, reusing the breakpoint arrays —
// the scheduler keeps two profile values alive for the whole run and
// re-inits them every pass instead of allocating. releases is sorted in
// place: the caller passes scratch it owns.
func (p *profile) init(now int64, totalNodes, freeNodes int, releases []int64) {
	p.reset(now, totalNodes, freeNodes)
	slices.Sort(releases)
	for _, t := range releases {
		p.addRelease(t, 1)
	}
}

// copyFrom (re)builds the profile in place from a release set, in
// O(len(rs.times)): the set is already sorted and counted.
func (p *profile) copyFrom(now int64, totalNodes, freeNodes int, rs *releaseSet) {
	p.reset(now, totalNodes, freeNodes)
	for i, t := range rs.times {
		p.addRelease(t, rs.counts[i])
	}
}

func (p *profile) reset(now int64, totalNodes, freeNodes int) {
	p.totalNodes, p.now, p.availNow = totalNodes, now, freeNodes
	p.times, p.deltas = p.times[:0], p.deltas[:0]
}

// addRelease appends n nodes released at t, which must be no earlier
// than any release added since reset.
func (p *profile) addRelease(t int64, n int) {
	if t <= p.now {
		// A predicted end in the past (job overran its request and
		// prediction): treat as releasing immediately after now.
		t = p.now + 1
	}
	if k := len(p.times) - 1; k >= 0 && p.times[k] == t {
		p.deltas[k] += n
		return
	}
	p.times = append(p.times, t)
	p.deltas = append(p.deltas, n)
}

// earliestStart returns the first time >= now at which `nodes` nodes are
// continuously available for `dur` seconds.
func (p *profile) earliestStart(nodes int, dur int64) int64 {
	if nodes > p.totalNodes {
		panic(fmt.Sprintf("sched: request %d of %d nodes", nodes, p.totalNodes))
	}
	if dur <= 0 {
		panic(fmt.Sprintf("sched: non-positive duration %d", dur))
	}
	start := p.now
	avail := p.availNow
	i := 0
	if avail < nodes {
		// advance to the first instant with enough nodes
		for i < len(p.times) {
			avail += p.deltas[i]
			if avail >= nodes {
				start = p.times[i]
				i++
				break
			}
			i++
		}
		if avail < nodes {
			panic("sched: availability never reaches the request; profile inconsistent")
		}
	}
	// check the window [start, start+dur); restart after any dip
	for i < len(p.times) && p.times[i] < start+dur {
		avail += p.deltas[i]
		if avail < nodes {
			// dip below: find the next recovery point
			i++
			for i < len(p.times) {
				avail += p.deltas[i]
				if avail >= nodes {
					start = p.times[i]
					i++
					break
				}
				i++
			}
			if avail < nodes {
				panic("sched: availability never recovers; profile inconsistent")
			}
			continue
		}
		i++
	}
	return start
}

// reserve subtracts `nodes` nodes during [from, to) — a conservative
// backfill reservation, or the footprint of a job started by this pass.
func (p *profile) reserve(from, to int64, nodes int) {
	if from < p.now || to <= from {
		panic(fmt.Sprintf("sched: bad reservation [%d,%d) at now=%d", from, to, p.now))
	}
	if from == p.now {
		p.availNow -= nodes
		if p.availNow < 0 {
			panic("sched: reservation exceeds current availability")
		}
	} else {
		p.insert(from, -nodes)
	}
	p.insert(to, nodes)
}

// insert adds a delta at time t, keeping the breakpoint list sorted.
func (p *profile) insert(t int64, delta int) {
	i := sort.Search(len(p.times), func(k int) bool { return p.times[k] >= t })
	if i < len(p.times) && p.times[i] == t {
		p.deltas[i] += delta
		return
	}
	p.times = append(p.times, 0)
	p.deltas = append(p.deltas, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.deltas[i+1:], p.deltas[i:])
	p.times[i] = t
	p.deltas[i] = delta
}

// releaseSet is a sorted multiset of node release times: the distinct
// times, ascending, with how many nodes release at each. Every count is
// positive.
type releaseSet struct {
	times  []int64
	counts []int
}

// move re-files one node whose release changed from old to t; 0 stands
// for a free node, which the set does not hold.
func (rs *releaseSet) move(old, t int64) {
	if old != 0 {
		i, found := slices.BinarySearch(rs.times, old)
		if !found {
			panic(fmt.Sprintf("sched: release %d not in the release set", old))
		}
		if rs.counts[i]--; rs.counts[i] == 0 {
			rs.times = slices.Delete(rs.times, i, i+1)
			rs.counts = slices.Delete(rs.counts, i, i+1)
		}
	}
	if t != 0 {
		i, found := slices.BinarySearch(rs.times, t)
		if found {
			rs.counts[i]++
		} else {
			rs.times = slices.Insert(rs.times, i, t)
			rs.counts = slices.Insert(rs.counts, i, 1)
		}
	}
}
