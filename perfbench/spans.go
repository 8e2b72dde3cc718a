package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"oic/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one HTTP request share the request's X-Oic-Trace-Id.
type span struct {
	name       string
	trace      string // "" for in-process calls
	parent     int32  // index of the enclosing span in the same log; -1 for a root
	start, end time.Duration
}

// spanLog is one goroutine's span record; it is never shared, so it needs
// no lock. Spans stay in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

// open starts a span and returns its index for close and for children.
func (l *spanLog) open(name, trace string, parent int32, start time.Time) int32 {
	l.spans = append(l.spans, span{name: name, trace: trace, parent: parent, start: start.Sub(l.epoch)})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(i int32, end time.Time) { l.spans[i].end = end.Sub(l.epoch) }

// tracedCall runs one client operation: encode req as JSON, send it,
// decode the reply into resp. With log set it records a client.<op> span
// with client.encode, http.<op> and client.decode children, all carrying
// one minted X-Oic-Trace-Id. It returns when the operation started and
// ended and the request and reply body bytes.
func tracedCall(log *spanLog, op string, req, resp any,
	send func(body []byte, trace string) ([]byte, error)) (start, end time.Time, bytes int, err error) {
	trace := ""
	root, sp := int32(-1), int32(-1)
	if log != nil {
		trace = obs.NewTraceID()
	}
	start = time.Now()
	if log != nil {
		root = log.open("client."+op, trace, -1, start)
		sp = log.open("client.encode", trace, root, start)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return start, start, 0, err
	}
	if log != nil {
		now := time.Now()
		log.close(sp, now)
		sp = log.open("http."+op, trace, root, now)
	}
	b, err := send(body, trace)
	if err != nil {
		return start, start, 0, err
	}
	if log != nil {
		now := time.Now()
		log.close(sp, now)
		sp = log.open("client.decode", trace, root, now)
	}
	err = json.Unmarshal(b, resp)
	end = time.Now()
	if log != nil {
		log.close(sp, end)
		log.close(root, end)
	}
	if err != nil {
		return start, end, 0, fmt.Errorf("%s reply: %w", op, err)
	}
	return start, end, len(body) + len(b), nil
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n          int
	total, own time.Duration // own = total less the time direct children cover
}

func (s spanStat) meanUs() float64    { return us(s.total) / float64(s.n) }
func (s spanStat) meanOwnUs() float64 { return us(s.own) / float64(s.n) }

// selfTimes aggregates every span by name, with self times.
func selfTimes(logs []*spanLog) map[string]spanStat {
	out := map[string]spanStat{}
	for _, l := range logs {
		covered := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				covered[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			st := out[s.name]
			st.n++
			st.total += s.end - s.start
			st.own += s.end - s.start - covered[i]
			out[s.name] = st
		}
	}
	return out
}

// dumpSpans writes every span of a traced run to <dir>/spans/<workload>.tsv
// as tab-separated "name trace log.index parent start_ns end_ns" lines.
func dumpSpans(o opts, logs []*spanLog) error {
	path := filepath.Join(o.dir, "spans", o.workload+".tsv")
	if err := writeSpans(path, logs); err != nil {
		return err
	}
	n := 0
	for _, l := range logs {
		n += len(l.spans)
	}
	fmt.Fprintf(o.log, "%d spans written to %s\n", n, path)
	return nil
}

func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for li, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(bw, "%s\t%s\t%d.%d\t%d\t%d\t%d\n", s.name, s.trace, li, i, s.parent, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledger splits the mean latency of a workload's unit operation along its
// blocking path. Each part is one layer's self time; the remainder is the
// part of the path no layer accounts for.
type ledger struct {
	op    string
	ops   int
	e2eUs float64
	parts []ledgerPart
}

type ledgerPart struct {
	layer string
	us    float64
}

func (l *ledger) add(layer string, us float64) { l.parts = append(l.parts, ledgerPart{layer, us}) }

func (l *ledger) remainderUs() float64 {
	r := l.e2eUs
	for _, p := range l.parts {
		r -= p.us
	}
	return r
}

// finish prints the ledger, checks that parts plus remainder add up to
// the end-to-end latency, and stores the ledger metrics.
func (l *ledger) finish(w io.Writer, m map[string]float64) error {
	fmt.Fprintf(w, "ledger per %s (mean over %d traced %ss):\n", l.op, l.ops, l.op)
	sum := 0.0
	for _, p := range l.parts {
		fmt.Fprintf(w, "  %-28s %12.3f us\n", p.layer, p.us)
		sum += p.us
	}
	rem := l.remainderUs()
	fmt.Fprintf(w, "  %-28s %12.3f us\n", "remainder (unattributed)", rem)
	fmt.Fprintf(w, "  %-28s %12.3f us\n", "= end to end", l.e2eUs)
	if d := math.Abs(sum + rem - l.e2eUs); d > 1e-6*math.Max(1, l.e2eUs) {
		return fmt.Errorf("ledger does not add up: %.6f + %.6f != %.6f", sum, rem, l.e2eUs)
	}
	m["ledger.e2e_us"] = l.e2eUs
	m["ledger.remainder_us"] = rem
	return nil
}
