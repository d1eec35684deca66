package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	g := p.NewGroup()
	for i := 0; i < 100; i++ {
		g.Go(func() error { n.Add(1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d of 100 tasks", n.Load())
	}
}

func TestPoolFirstErrorWins(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := p.NewGroup()
	want := errors.New("boom")
	for i := 0; i < 10; i++ {
		i := i
		g.Go(func() error {
			if i%3 == 0 {
				return want
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait() = %v, want %v", err, want)
	}
}

// TestPoolNestedGroupsSingleWorker is the deadlock regression: with one
// worker, a task that forks a subgroup and joins it can only finish if the
// waiting goroutine helps execute its own subtasks.
func TestPoolNestedGroupsSingleWorker(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var n atomic.Int64
	g := p.NewGroup()
	for i := 0; i < 4; i++ {
		g.Go(func() error {
			sub := p.NewGroup()
			for j := 0; j < 4; j++ {
				sub.Go(func() error {
					leaf := p.NewGroup()
					leaf.Go(func() error { n.Add(1); return nil })
					return leaf.Wait()
				})
			}
			return sub.Wait()
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 16 {
		t.Fatalf("ran %d of 16 leaves", n.Load())
	}
}

// TestPoolStress hammers the scheduler from many submitters so the race
// detector can see into the deque and group bookkeeping.
func TestPoolStress(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var n atomic.Int64
	g := p.NewGroup()
	for i := 0; i < 32; i++ {
		g.Go(func() error {
			sub := p.NewGroup()
			for j := 0; j < 50; j++ {
				sub.Go(func() error { n.Add(1); return nil })
			}
			return sub.Wait()
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 32*50 {
		t.Fatalf("ran %d of %d", n.Load(), 32*50)
	}
}

func TestGroupWaitHelpsOwnGroupOnly(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	outer := p.NewGroup()
	outer.Go(func() error {
		// The single worker is now occupied; the subgroup's task can only
		// run through the helping Wait below.
		sub := p.NewGroup()
		ran := false
		sub.Go(func() error { ran = true; return nil })
		if err := sub.Wait(); err != nil {
			return err
		}
		if !ran {
			return errors.New("subtask never ran")
		}
		return nil
	})
	if err := outer.Wait(); err != nil {
		t.Fatal(err)
	}
}

type testKey struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

type testValue struct {
	Words []string `json:"words"`
	Score float64  `json:"score"`
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey{Kind: "unit", N: 7}
	want := testValue{Words: []string{"a", "b"}, Score: 1.25}

	var got testValue
	if ok, err := c.Get(key, &got); err != nil || ok {
		t.Fatalf("Get before Put = %v, %v", ok, err)
	}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Get(key, &got); err != nil || !ok {
		t.Fatalf("Get after Put = %v, %v", ok, err)
	}
	if got.Score != want.Score || len(got.Words) != 2 || got.Words[0] != "a" {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Puts != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestCacheDistinctKeysDistinctEntries(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey{Kind: "k", N: 1}, testValue{Score: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey{Kind: "k", N: 2}, testValue{Score: 2}); err != nil {
		t.Fatal(err)
	}
	var v testValue
	if ok, _ := c.Get(testKey{Kind: "k", N: 1}, &v); !ok || v.Score != 1 {
		t.Fatalf("key 1: ok=%v v=%+v", ok, v)
	}
	if ok, _ := c.Get(testKey{Kind: "k", N: 2}, &v); !ok || v.Score != 2 {
		t.Fatalf("key 2: ok=%v v=%+v", ok, v)
	}
}

// storedEntry puts value under key in a fresh cache and returns the cache,
// the key's resolved form and the entry's bytes as Put wrote them.
func storedEntry(t testing.TB, key, value any) (*Cache, Key, []byte) {
	t.Helper()
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, value); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.path(k.Address()))
	if err != nil {
		t.Fatal(err)
	}
	return c, k, raw
}

// TestCacheCorruptEntryIsMiss puts entries that are not byte-exact to
// Put's format, or whose value the caller cannot decode, at a key's path:
// each is a miss on Get and on Lookup, and each lookup moves the miss
// counter. The entry Put wrote, restored, is a hit again.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	key := testKey{Kind: "corrupt", N: 1}
	c, k, entry := storedEntry(t, key, testValue{Words: []string{"a"}, Score: 3})
	_, _, other := storedEntry(t, testKey{Kind: "corrupt", N: 2}, testValue{Score: 3})
	value := entry[len(`{"key":`)+len(k.json)+len(`,"value":`) : len(entry)-1]
	var indented bytes.Buffer
	if err := json.Indent(&indented, entry, "", "  "); err != nil {
		t.Fatal(err)
	}
	record := func(v string) []byte {
		return []byte(`{"key":` + string(k.json) + `,"value":` + v + `}`)
	}
	if !bytes.Equal(record(string(value)), entry) {
		t.Fatalf("Put wrote %s, not the envelope format", entry)
	}
	cases := []struct {
		name  string
		bytes []byte
		// decodable: the value is well-formed JSON, so only a decoder
		// that wants a testValue turns the lookup into a miss.
		decodable bool
	}{
		{"garbage", []byte("{not json"), false},
		{"another key's entry", other, false},
		{"torn file", entry[:len(entry)/2], false},
		{"truncated value", record(string(value[:len(value)-2])), false},
		{"trailing newline", append(slices.Clone(entry), '\n'), false},
		{"bytes after the closing brace", append(slices.Clone(entry), "{}"...), false},
		{"reformatted envelope", indented.Bytes(), false},
		{"space inside the value", record(strings.Replace(string(value), ":", ": ", 1)), false},
		{"unescaped HTML in the value", record(`{"words":["<a>"],"score":3}`), false},
		{"value the caller cannot decode", record(`"three"`), true},
	}
	path := c.path(k.Address())
	for _, tc := range cases {
		if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Metrics()
		var v testValue
		if ok, err := c.Get(key, &v); err != nil || ok {
			t.Errorf("%s: Get = %v, %v; want a miss", tc.name, ok, err)
		}
		if c.Lookup(k, func(b []byte) error { return json.Unmarshal(b, &v) }) {
			t.Errorf("%s: Lookup decoding a testValue hit", tc.name)
		}
		var raw json.RawMessage
		if hit := c.Lookup(k, func(b []byte) error { return json.Unmarshal(b, &raw) }); hit != tc.decodable {
			t.Errorf("%s: Lookup decoding any JSON value hit = %v, want %v", tc.name, hit, tc.decodable)
		}
		want := before
		want.Misses += 2
		if tc.decodable {
			want.Hits++
		} else {
			want.Misses++
		}
		if got := c.Metrics(); got != want {
			t.Errorf("%s: counters %+v, want %+v", tc.name, got, want)
		}
	}
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}
	var v testValue
	if ok, err := c.Get(key, &v); err != nil || !ok || v.Score != 3 {
		t.Fatalf("restored entry: ok=%v err=%v value %+v", ok, err, v)
	}
}

// FuzzCacheLookup writes mutated bytes of a valid entry at its key's path.
// A lookup is a hit only on an entry Put could have written: the value it
// returns, stored again, writes exactly the bytes that were read, and the
// unmutated entry returns exactly the value Put stored. Every lookup moves
// exactly one counter.
func FuzzCacheLookup(f *testing.F) {
	key := testKey{Kind: "fuzz", N: 1}
	c, k, entry := storedEntry(f, key, testValue{Words: []string{"a<b", "\u2028", "q\"t", "x y"}, Score: 1.5})
	value := slices.Clone(entry[len(`{"key":`)+len(k.json)+len(`,"value":`) : len(entry)-1])
	again, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(append(slices.Clone(entry), ' '))
	f.Add(entry[:len(entry)-1])
	f.Add(bytes.Replace(entry, []byte(`"score":`), []byte(`"score": `), 1))
	f.Add(bytes.Replace(entry, []byte(`1.5`), []byte(`2.5`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := c.path(k.Address())
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.Metrics()
		var got json.RawMessage
		hit := c.Lookup(k, func(b []byte) error { return json.Unmarshal(b, &got) })
		after := c.Metrics()
		if moved := (after.Hits - before.Hits) + (after.Misses - before.Misses); moved != 1 || (after.Hits > before.Hits) != hit {
			t.Fatalf("hit=%v moved the counters from %+v to %+v", hit, before, after)
		}
		if bytes.Equal(data, entry) && (!hit || !bytes.Equal(got, value)) {
			t.Fatalf("unmutated entry: hit=%v value %s, want %s", hit, got, value)
		}
		if !hit {
			return
		}
		if err := again.Put(key, got); err != nil {
			t.Fatal(err)
		}
		stored, err := os.ReadFile(again.path(k.Address()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, data) {
			t.Fatalf("hit on an entry Put does not write:\nread:   %q\nstores: %q", data, stored)
		}
	})
}

func TestCacheNilIsInert(t *testing.T) {
	var c *Cache
	if err := c.Put(testKey{}, testValue{}); err != nil {
		t.Fatal(err)
	}
	var v testValue
	if ok, err := c.Get(testKey{}, &v); err != nil || ok {
		t.Fatalf("nil cache Get = %v, %v", ok, err)
	}
	if c.Dir() != "" || (c.Metrics() != Metrics{}) {
		t.Fatal("nil cache not inert")
	}
}

func TestCacheConcurrentSameKey(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(8)
	defer p.Close()
	g := p.NewGroup()
	key := testKey{Kind: "contended", N: 9}
	for i := 0; i < 32; i++ {
		g.Go(func() error {
			if err := c.Put(key, testValue{Score: 42}); err != nil {
				return err
			}
			var v testValue
			if ok, err := c.Get(key, &v); err != nil {
				return err
			} else if ok && v.Score != 42 {
				return fmt.Errorf("torn read: %+v", v)
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintStable(t *testing.T) {
	a, err := Fingerprint(testKey{Kind: "fp", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(testKey{Kind: "fp", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != 64 {
		t.Fatalf("fingerprints %q vs %q", a, b)
	}
	c, _ := Fingerprint(testKey{Kind: "fp", N: 4})
	if c == a {
		t.Fatal("distinct keys share a fingerprint")
	}
}

func TestProgressLines(t *testing.T) {
	var lines []string
	pr := NewProgress(func(s string) { lines = append(lines, s) })
	pr.AddTotal(3)
	pr.JobDone("w1/cons", false)
	pr.JobDone("w1/fdp24", true)
	pr.JobDone("w1/eip", false)
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "[  1/3]") || !strings.Contains(lines[0], "eta") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(lines[1], "(cached)") {
		t.Fatalf("cached line %q", lines[1])
	}
	if !strings.Contains(lines[2], "done") {
		t.Fatalf("final line %q", lines[2])
	}
	var nilPr *Progress
	nilPr.AddTotal(1)
	nilPr.JobDone("x", false) // must not panic
}

// fakeClockProgress returns a tracker whose clock the test controls.
func fakeClockProgress(emit func(string)) (*Progress, *time.Time) {
	pr := NewProgress(emit)
	base := time.Unix(1_700_000_000, 0)
	cur := new(time.Time)
	*cur = base
	pr.now = func() time.Time { return *cur }
	pr.start = base
	return pr, cur
}

// TestProgressETALivePace pins the live-pace projection: cache hits are
// nearly free, so the ETA must extrapolate from live jobs only. Fails on
// the pre-fix code, which averaged cache hits into the pace and halved
// the projection here.
func TestProgressETALivePace(t *testing.T) {
	var lines []string
	pr, cur := fakeClockProgress(func(s string) { lines = append(lines, s) })
	pr.AddTotal(4)

	// One live job takes 10s, then a cache hit lands instantly. Two jobs
	// remain; at the live pace of 10s/job the honest ETA is 20s.
	*cur = cur.Add(10 * time.Second)
	pr.JobDone("live", false)
	pr.JobDone("hit", true)
	if !strings.Contains(lines[1], "eta 20s") {
		t.Fatalf("mixed-pace line %q, want live-pace projection of 20s", lines[1])
	}
}

// TestProgressFullyCachedSuite drives an all-cache-hits suite through the
// tracker: every emitted ETA must be finite (no +Inf from a zero live-job
// divisor), non-negative, and non-increasing.
func TestProgressFullyCachedSuite(t *testing.T) {
	var lines []string
	pr, cur := fakeClockProgress(func(s string) { lines = append(lines, s) })
	const total = 6
	pr.AddTotal(total)
	for i := 0; i < total; i++ {
		*cur = cur.Add(2 * time.Second)
		pr.JobDone(fmt.Sprintf("job%d", i), true)
	}
	if len(lines) != total {
		t.Fatalf("emitted %d lines, want %d", len(lines), total)
	}
	re := regexp.MustCompile(`eta (\S+),`)
	prev := time.Duration(1<<63 - 1)
	for i, ln := range lines[:total-1] {
		if strings.Contains(ln, "Inf") || strings.Contains(ln, "NaN") || strings.Contains(ln, "eta -") {
			t.Fatalf("line %d not finite/non-negative: %q", i, ln)
		}
		m := re.FindStringSubmatch(ln)
		if m == nil {
			t.Fatalf("line %d has no eta: %q", i, ln)
		}
		d, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatalf("line %d eta %q: %v", i, m[1], err)
		}
		if d < 0 || d > prev {
			t.Fatalf("line %d eta %v not monotone non-increasing (prev %v)", i, d, prev)
		}
		prev = d
	}
	if !strings.Contains(lines[total-1], "done") {
		t.Fatalf("final line %q", lines[total-1])
	}
}

// TestProgressClampsNegativeRemaining feeds a clock that runs backwards
// (elapsed < 0, as a stepping fake or a suspended host can produce) and
// asserts the ETA clamps to zero instead of emitting a negative duration.
// Fails on the pre-fix code ("eta -2s").
func TestProgressClampsNegativeRemaining(t *testing.T) {
	var lines []string
	pr, cur := fakeClockProgress(func(s string) { lines = append(lines, s) })
	pr.AddTotal(3)
	*cur = cur.Add(-2 * time.Second)
	pr.JobDone("w", false)
	if !strings.Contains(lines[0], "eta 0s") {
		t.Fatalf("negative-elapsed line %q, want clamped eta 0s", lines[0])
	}
}
