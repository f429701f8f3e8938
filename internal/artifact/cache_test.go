package artifact

import (
	"errors"
	"testing"
)

// TestCachePeekNeverBuilds: Peek of an absent key, or of a key whose
// build is in flight, reports false, builds nothing and does not wait.
func TestCachePeekNeverBuilds(t *testing.T) {
	c := NewCache[string, int](4)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek found an absent key")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("Peek of an absent key moved the counters: %+v", st)
	}

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := c.Get("a", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- err
	}()
	<-started
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek returned a value whose build is in flight")
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != 0 {
		t.Fatalf("after Peek of a key in flight: %+v, want 1 build, 0 hits", st)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Peek("a"); !ok || v != 7 {
		t.Fatalf("Peek after the build = %d, %v; want 7, true", v, ok)
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("after a Peek hit: %+v, want 1 build, 1 hit", st)
	}
}

// TestCachePeekRefreshesRecency: a peeked entry survives the next
// eviction, and the least recently used one goes.
func TestCachePeekRefreshesRecency(t *testing.T) {
	c := NewCache[string, int](2)
	for i, k := range []string{"a", "b"} {
		if _, err := c.Get(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("Peek missed a built key")
	}
	if _, err := c.Get("c", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("the peeked entry was evicted")
	}
	if _, ok := c.Peek("b"); ok {
		t.Fatal("the least recently used entry survived")
	}
	if st := c.Stats(); c.Len() != 2 || st.Evictions != 1 {
		t.Fatalf("len %d, %+v; want 2 entries and 1 eviction", c.Len(), st)
	}
}

// TestCachePanickingBuildIsNotCached: the panic reaches the caller that
// ran the build, and the next Get builds again.
func TestCachePanickingBuildIsNotCached(t *testing.T) {
	c := NewCache[string, int](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach its caller")
			}
		}()
		c.Get("a", func() (int, error) { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("a panicked build left %d entries", c.Len())
	}
	if _, err := c.Get("a", func() (int, error) { return 0, errors.New("bad") }); err == nil {
		t.Fatal("a failed build returned no error")
	}
	v, err := c.Get("a", func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Get after failed builds = %d, %v; want 3", v, err)
	}
	if st := c.Stats(); st.Builds != 3 || st.BuildErrors != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 3 builds, 2 errors, 0 hits", st)
	}
}
