package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// DefaultSampleCap is the ring capacity used when Options.SampleCap is
// unset: enough to cover a 250k-cycle run at stride 64 without wrapping.
const DefaultSampleCap = 4096

// Options configures an Observer.
type Options struct {
	// Stride is the sampling period in cycles; <= 0 means every cycle.
	Stride int64
	// SampleCap bounds the sample ring; the ring keeps the most recent
	// SampleCap samples. <= 0 selects DefaultSampleCap.
	SampleCap int
	// Events, when non-nil, receives the event trace as JSONL (one Event
	// object per line), in simulation order.
	Events io.Writer
	// MaxEvents caps how many events are written to Events; once reached,
	// further events are counted (DroppedEvents) but not written. <= 0
	// means unlimited.
	MaxEvents int64
}

// Observer is the standard Sink: it keeps the most recent samples in a
// fixed ring, streams events as JSONL, and tallies per-kind event counts.
// It is not safe for concurrent use; each simulation needs its own.
type Observer struct {
	opts Options

	ring  []Sample
	next  int   // ring slot for the next sample
	total int64 // samples ever taken (>= len(ring) once wrapped)

	enc     *bufio.Writer
	written int64
	dropped int64
	counts  [numEventKinds]int64
	err     error
}

// NewObserver builds an Observer from opts.
func NewObserver(opts Options) *Observer {
	if opts.Stride <= 0 {
		opts.Stride = 1
	}
	if opts.SampleCap <= 0 {
		opts.SampleCap = DefaultSampleCap
	}
	o := &Observer{opts: opts, ring: make([]Sample, 0, opts.SampleCap)}
	if opts.Events != nil {
		o.enc = bufio.NewWriter(opts.Events)
	}
	return o
}

// SampleStride implements Sink.
func (o *Observer) SampleStride() int64 { return o.opts.Stride }

// Sample implements Sink, appending to the ring (overwriting the oldest
// sample once the ring is full).
func (o *Observer) Sample(s Sample) {
	if len(o.ring) < cap(o.ring) {
		o.ring = append(o.ring, s)
	} else {
		o.ring[o.next] = s
	}
	o.next++
	if o.next == cap(o.ring) {
		o.next = 0
	}
	o.total++
}

// Event implements Sink, streaming the record as one JSONL line.
func (o *Observer) Event(e Event) {
	if int(e.Kind) < len(o.counts) {
		o.counts[e.Kind]++
	}
	if o.enc == nil || o.err != nil {
		return
	}
	if o.opts.MaxEvents > 0 && o.written >= o.opts.MaxEvents {
		o.dropped++
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		o.err = err
		return
	}
	if _, err := o.enc.Write(b); err != nil {
		o.err = err
		return
	}
	if err := o.enc.WriteByte('\n'); err != nil {
		o.err = err
		return
	}
	o.written++
}

// Samples returns the retained samples in chronological order. The slice
// is freshly allocated.
func (o *Observer) Samples() []Sample {
	out := make([]Sample, 0, len(o.ring))
	if len(o.ring) < cap(o.ring) || o.total == int64(len(o.ring)) {
		return append(out, o.ring...)
	}
	out = append(out, o.ring[o.next:]...)
	return append(out, o.ring[:o.next]...)
}

// TotalSamples reports how many samples were taken, including any that
// have since been overwritten in the ring.
func (o *Observer) TotalSamples() int64 { return o.total }

// EventCount returns how many events of kind k were observed (including
// any dropped past MaxEvents).
func (o *Observer) EventCount(k EventKind) int64 {
	if int(k) >= len(o.counts) {
		return 0
	}
	return o.counts[k]
}

// DroppedEvents reports events counted but not written because MaxEvents
// was reached.
func (o *Observer) DroppedEvents() int64 { return o.dropped }

// Flush drains buffered event output.
func (o *Observer) Flush() error {
	if o.enc != nil {
		if err := o.enc.Flush(); err != nil && o.err == nil {
			o.err = err
		}
	}
	return o.err
}

// Err returns the first write/encode error, if any.
func (o *Observer) Err() error { return o.err }

// WriteSamples writes the retained samples as JSONL in chronological
// order.
func WriteSamples(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	for _, s := range samples {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEvents parses a JSONL event trace, e.g. one produced by Observer.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}

// FileObserver is an Observer whose event trace streams to
// <dir>/<label>.events.jsonl and whose retained samples are written to
// <dir>/<label>.samples.jsonl on Close.
type FileObserver struct {
	*Observer
	dir   string
	label string
	f     *os.File
}

// SanitizeLabel maps an arbitrary run label to a filesystem-safe stem:
// anything outside [A-Za-z0-9._-] becomes '_'.
func SanitizeLabel(label string) string {
	b := []byte(label)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	if len(b) == 0 {
		return "run"
	}
	return string(b)
}

// NewFileObserver creates dir if needed and opens the event stream. The
// label is sanitized with SanitizeLabel.
func NewFileObserver(dir, label string, opts Options) (*FileObserver, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	label = SanitizeLabel(label)
	f, err := os.Create(filepath.Join(dir, label+".events.jsonl"))
	if err != nil {
		return nil, err
	}
	opts.Events = f
	return &FileObserver{Observer: NewObserver(opts), dir: dir, label: label, f: f}, nil
}

// Close flushes the event stream, closes it, and writes the sample file.
func (o *FileObserver) Close() error {
	err := o.Flush()
	if cerr := o.f.Close(); err == nil {
		err = cerr
	}
	sf, serr := os.Create(filepath.Join(o.dir, o.label+".samples.jsonl"))
	if serr != nil {
		if err == nil {
			err = serr
		}
		return err
	}
	if werr := WriteSamples(sf, o.Samples()); werr != nil && err == nil {
		err = werr
	}
	if cerr := sf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// EventCountsMetricSet renders the observer's per-kind event totals as
// metrics, with the given base labels plus kind=<name>.
func (o *Observer) EventCountsMetricSet(labels ...Label) MetricSet {
	var ms MetricSet
	for k := EventKind(0); k < numEventKinds; k++ {
		kl := make([]Label, 0, len(labels)+1)
		kl = append(kl, labels...)
		kl = append(kl, Label{Key: "kind", Value: k.String()})
		sort.Slice(kl, func(i, j int) bool { return kl[i].Key < kl[j].Key })
		ms.Add(Metric{
			Name:   "frontsim_obs_events_total",
			Help:   "Structured front-end events observed, by kind.",
			Labels: kl,
			Value:  float64(o.counts[k]),
		})
	}
	return ms
}

var _ Sink = (*Observer)(nil)

func init() {
	// Compile-time-ish guard that every kind has a wire name.
	for i, n := range eventKindNames {
		if n == "" {
			panic(fmt.Sprintf("obs: EventKind %d has no name", i))
		}
	}
}
