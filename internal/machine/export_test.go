package machine

import "github.com/tieredmem/hemem/internal/pebs"

// FeedSamples runs the step's sample draw for one component.
func (m *Machine) FeedSamples(s *pebs.Sampler, c *Component, occ float64) { m.feedSamples(s, c, occ) }

// FlushSamples runs the step's record build and push.
func (m *Machine) FlushSamples(buf *pebs.Buffer) { m.flushSamples(buf) }

// PendingRetained counts the pending-sample slots, up to capacity, that
// still reference a page.
func (m *Machine) PendingRetained() int {
	n := 0
	for _, ps := range m.pending[:cap(m.pending)] {
		if ps.p != nil {
			n++
		}
	}
	return n
}
