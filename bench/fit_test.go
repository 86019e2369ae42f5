package bench

import (
	"encoding/json"
	"reflect"
	"testing"
)

func sequence(seed uint64, n int) ([]fitRequest, *fitPlan) {
	p := newFitPlan(seed, 32, 60)
	out := make([]fitRequest, n)
	for i := range out {
		idx, req := p.next()
		if idx != i {
			panic("sequence positions out of order")
		}
		out[i] = req
	}
	return out, p
}

func TestFitPlanSameSeedSameRequests(t *testing.T) {
	a, pa := sequence(7, 500)
	b, pb := sequence(7, 500)
	if !reflect.DeepEqual(a, b) || pa.graphSeed != pb.graphSeed || !reflect.DeepEqual(pa.questions, pb.questions) {
		t.Fatal("the same seed gave different inputs")
	}
	c, pc := sequence(8, 500)
	if reflect.DeepEqual(a, c) || pa.graphSeed == pc.graphSeed || reflect.DeepEqual(pa.questions, pc.questions) {
		t.Fatal("another seed gave the same inputs")
	}
}

func TestFitPlanShape(t *testing.T) {
	reqs, p := sequence(3, 2000)
	questions := map[uint64]string{}
	for _, q := range p.questions {
		questions[q.Seed] = q.Account
	}
	if len(questions) != 32 {
		t.Fatalf("%d distinct questions, want 32", len(questions))
	}
	seen := map[uint64]bool{}
	perAccount := map[string]int{}
	hits := 0
	for i, r := range reqs {
		if r.Seed == 0 {
			t.Fatal("seed 0 drawn; the server reads it as seed 1")
		}
		if i%5 == 0 && hits != 3*i/5 {
			t.Fatalf("%d hits among the first %d requests, want 60%%", hits, i)
		}
		if r.Hit {
			hits++
			if acct, ok := questions[r.Seed]; !ok || acct != r.Account {
				t.Fatalf("hit %+v does not repeat a question", r)
			}
			continue
		}
		if seen[r.Seed] || questions[r.Seed] != "" {
			t.Fatalf("cold seed %d repeats an earlier request", r.Seed)
		}
		seen[r.Seed] = true
		perAccount[r.Account]++
	}
	if hits != 1200 {
		t.Errorf("%d of 2000 requests are hits, want 60%%", hits)
	}
	for acct, n := range perAccount {
		if n > 99 {
			t.Errorf("account %s pays for %d fits, more than its δ budget allows", acct, n)
		}
	}
}

func TestCanonicalReleaseDropsAnswerFields(t *testing.T) {
	cold := json.RawMessage(`{"method":"private","k":3,"remaining":{"eps":1,"delta":0.5},"features":{"e":1, "h":2}}`)
	hit := json.RawMessage(`{
  "method": "private",
  "k": 3,
  "features": {"e": 1, "h": 2},
  "cached": true,
  "release": "rel-0123456789abcdef"
}`)
	a, err := canonicalRelease(cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalRelease(hit)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) || string(a) != `{"features":{"e":1,"h":2},"k":3,"method":"private"}` {
		t.Errorf("canonical releases %s and %s", a, b)
	}
}
