package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName indexes spanNames; spans store the index so recording does
// not copy strings.
type spanName uint8

const (
	spOpGet spanName = iota
	spOpPut
	spOpSession
	spSeal
	spOpen
	spPutSealed
	spGetSealed
	spClusterPut
	spFetch
	spProvision
	spFirstByte
	spLoad
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOpGet:      "op.get",
	spOpPut:      "op.put",
	spOpSession:  "op.session",
	spSeal:       "sdp.client.seal",
	spOpen:       "sdp.client.open",
	spPutSealed:  "sdp.cluster.put_sealed",
	spGetSealed:  "sdp.cluster.get_sealed",
	spClusterPut: "sdp.cluster.put",
	spFetch:      "attest.fetch",
	spProvision:  "attest.provision",
	spFirstByte:  "attest.provision.first_byte",
	spLoad:       "boot.load",
}

// span is one timed call. id is the span's index in its recorder plus
// one; parent 0 marks a request's root. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	req        uint64
	id, parent int32
	name       spanName
	start, end int64
}

// recorder keeps one goroutine's spans in memory; it is not safe for
// concurrent use. A nil recorder records nothing, which is how the
// untraced run skips tracing.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name spanName, req uint64, parent int32) int32 {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{req: req, parent: parent, name: name, start: int64(time.Since(r.epoch))})
	id := int32(len(r.spans))
	r.spans[id-1].id = id
	return id
}

// add records a span whose times the caller measured itself.
func (r *recorder) add(name spanName, req uint64, parent int32, start, end time.Time) {
	if r == nil {
		return
	}
	id := r.begin(name, req, parent)
	r.spans[id-1].start = int64(start.Sub(r.epoch))
	r.spans[id-1].end = int64(end.Sub(r.epoch))
}

func (r *recorder) end(id int32) {
	if r != nil && id > 0 {
		r.spans[id-1].end = int64(time.Since(r.epoch))
	}
}

// spanStats holds every span duration and self time by name, in ms.
type spanStats struct {
	dur, self [numSpanNames][]float64
}

// collect adds a recorder's spans. A span's self time is its duration
// minus its children's: the children of one span run one after another
// on the recorder's goroutine, so they never overlap.
func (s *spanStats) collect(r *recorder) {
	child := make([]int64, len(r.spans))
	for _, sp := range r.spans {
		if sp.parent > 0 {
			child[sp.parent-1] += sp.end - sp.start
		}
	}
	for i, sp := range r.spans {
		d := sp.end - sp.start
		s.dur[sp.name] = append(s.dur[sp.name], float64(d)/1e6)
		s.self[sp.name] = append(s.self[sp.name], float64(max(d-child[i], 0))/1e6)
	}
}

// p50 is the median duration (or self time) of name, and the sample
// count; 0 when no span of that name was recorded.
func (s *spanStats) p50(name spanName, self bool) (float64, int) {
	v := s.dur[name]
	if self {
		v = s.self[name]
	}
	if len(v) == 0 {
		return 0, 0
	}
	return quantile(v, 0.5), len(v)
}

// writeSpans dumps every recorder's spans as tab-separated rows:
// worker, request, id, parent, name, start and end in ns.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\treq\tid\tparent\tname\tstart_ns\tend_ns")
	for wi, r := range recs {
		for _, sp := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", wi, sp.req, sp.id, sp.parent, spanNames[sp.name], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
