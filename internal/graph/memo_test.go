package graph

import (
	"sync"
	"testing"
)

type memoKeyA struct{}
type memoKeyB struct{}

// TestMemoKeyScoped: a value is found only under its own key, the first
// value stored stays, and an edited or equal graph has its own memo.
func TestMemoKeyScoped(t *testing.T) {
	g := Cycle(6)
	if _, ok := g.Memo(memoKeyA{}); ok {
		t.Fatal("fresh graph has a memo entry")
	}
	g.SetMemo(memoKeyA{}, 1)
	g.SetMemo(memoKeyA{}, 2)
	g.SetMemo(memoKeyB{}, "b")
	if v, ok := g.Memo(memoKeyA{}); !ok || v != 1 {
		t.Fatalf("Memo(A) = %v, %v; want the first value 1", v, ok)
	}
	if v, ok := g.Memo(memoKeyB{}); ok {
		t.Fatalf("Memo(B) = %v under another key's slot", v)
	}
	if _, ok := g.WithEdgeToggled(0, 3).Memo(memoKeyA{}); ok {
		t.Fatal("an edge-toggled copy inherited the memo")
	}
	if _, ok := Cycle(6).Memo(memoKeyA{}); ok {
		t.Fatal("an equal graph shares the memo")
	}
}

// TestMemoConcurrentSetters: racing setters and readers leave exactly
// one of the stored values.
func TestMemoConcurrentSetters(t *testing.T) {
	g := Path(4)
	var wg sync.WaitGroup
	for i := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.SetMemo(memoKeyA{}, i)
			if v, ok := g.Memo(memoKeyA{}); !ok || v.(int) < 0 || v.(int) >= 16 {
				t.Errorf("Memo = %v, %v after a store", v, ok)
			}
		}()
	}
	wg.Wait()
	first, _ := g.Memo(memoKeyA{})
	g.SetMemo(memoKeyA{}, -1)
	if v, _ := g.Memo(memoKeyA{}); v != first {
		t.Fatalf("Memo changed from %v to %v", first, v)
	}
}
