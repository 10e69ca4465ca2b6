package machine

import (
	"fmt"
	"math"

	"github.com/tieredmem/hemem/internal/pebs"
)

// FeedSamples runs the step's sample draw for one component.
func (m *Machine) FeedSamples(s *pebs.Sampler, c *Component, occ float64) { m.feedSamples(s, c, occ) }

// FlushSamples runs the step's record build and push.
func (m *Machine) FlushSamples(buf *pebs.Buffer) { m.flushSamples(buf) }

// PendingLen returns how many drawn samples await their records.
func (m *Machine) PendingLen() int { return len(m.pending) }

// CheckCostMemo compares every cached price the machine would reuse right
// now — each step slot and each branch-memo entry whose key still matches
// its component — bit for bit with a fresh, uncached computation. It
// returns how many cached entries it checked and the first mismatch.
func (m *Machine) CheckCostMemo() (checked int, err error) {
	epoch := m.costEpoch()
	for i := range m.ws {
		s := &m.ws[i]
		for j := range s.comps {
			c := &s.comps[j]
			if newCostKey(c, epoch) != s.keys[j] {
				continue
			}
			var fresh CompCost
			m.costComponent(c, &fresh)
			if !sameBits(fresh.Time, s.costs[j].Time) || !sameArrays(&fresh.Bytes, &s.costs[j].Bytes) ||
				!sameArrays(&fresh.Util, &s.costs[j].Util) {
				return checked, fmt.Errorf("cached price of %s component %d = %+v, fresh %+v",
					s.w.Name(), j, s.costs[j], fresh)
			}
			checked++
		}
	}
	for i := range m.branchMemo {
		e := &m.branchMemo[i]
		c := e.key.c
		if newCostKey(&c, epoch) != e.key {
			continue
		}
		fresh := m.branches(nil, c)
		same := len(fresh) == len(e.br)
		for b := 0; same && b < len(fresh); b++ {
			same = sameBits(fresh[b].Prob, e.br[b].Prob) && sameBits(fresh[b].Time, e.br[b].Time)
		}
		if !same {
			return checked, fmt.Errorf("cached branches of %+v = %v, fresh %v", c, e.br, fresh)
		}
		checked++
	}
	return checked, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameArrays(a, b *[MaxDevs][2]float64) bool {
	for d := range a {
		for k := range a[d] {
			if !sameBits(a[d][k], b[d][k]) {
				return false
			}
		}
	}
	return true
}
