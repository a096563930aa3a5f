package ucx

import (
	"reflect"
	"testing"

	"repro/internal/hw"
)

// patternBytes is large enough for pattern-aware planning under the
// default PatternAwareMinBytes.
const patternBytes = 32 * hw.MiB

// subsetHint returns the hint made of the pairs of Beluga's four GPUs,
// other than (0, 1), whose bit is set in mask: 11 pairs, so every mask
// below 2048 is a distinct filtered hint for the planned pair (0, 1).
func subsetHint(mask int) [][2]int {
	var hint [][2]int
	bit := 0
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b || (a == 0 && b == 1) {
				continue
			}
			if mask&(1<<bit) != 0 {
				hint = append(hint, [2]int{a, b})
			}
			bit++
		}
	}
	return hint
}

func patternPlanners(c *Context) int {
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	return len(c.patternModels)
}

// TestPatternPlannersBounded feeds more distinct hints than the cap and
// requires the context to keep at most maxPatternModels planners.
func TestPatternPlannersBounded(t *testing.T) {
	ctx := testContext(t, nil)
	for mask := 1; mask <= maxPatternModels+40; mask++ {
		if _, err := ctx.PlanFor(0, 1, patternBytes, subsetHint(mask)); err != nil {
			t.Fatal(err)
		}
	}
	if n := patternPlanners(ctx); n != maxPatternModels {
		t.Fatalf("pattern planners = %d, want the cap %d", n, maxPatternModels)
	}
}

// TestPatternPlannerSharedAcrossPairs checks that the planner is keyed by
// the hint with the planned pair removed: (0, 1) hinted with {(2, 3)} and
// (1, 0) hinted with {(1, 0), (2, 3)} read the same load and share one
// planner.
func TestPatternPlannerSharedAcrossPairs(t *testing.T) {
	ctx := testContext(t, nil)
	a, err := ctx.patternModel(0, 1, [][2]int{{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.patternModel(1, 0, [][2]int{{1, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("pairs with the same filtered hint built separate planners")
	}
	if n := patternPlanners(ctx); n != 1 {
		t.Fatalf("pattern planners = %d, want 1", n)
	}
	// A permuted hint is a different load order, so a different planner.
	if c, err := ctx.patternModel(0, 1, [][2]int{{3, 2}, {2, 3}}); err != nil {
		t.Fatal(err)
	} else if c == a {
		t.Fatal("different filtered hints share a planner")
	}
}

// TestRebuiltPatternPlannerMatchesFresh evicts a planner by overflowing
// the cap, plans with its hint again, and requires the rebuilt planner's
// plan to equal a fresh context's field for field.
func TestRebuiltPatternPlannerMatchesFresh(t *testing.T) {
	ctx := testContext(t, nil)
	const firstMask = 1<<3 | 1<<7
	first := subsetHint(firstMask)
	before, err := ctx.PlanFor(0, 1, patternBytes, first)
	if err != nil {
		t.Fatal(err)
	}
	for mask, added := 1, 0; added < maxPatternModels; mask++ {
		if mask == firstMask {
			continue
		}
		if _, err := ctx.PlanFor(0, 1, patternBytes, subsetHint(mask)); err != nil {
			t.Fatal(err)
		}
		added++
	}
	key := string(patternKey(nil, 0, 1, first))
	ctx.modelMu.Lock()
	_, kept := ctx.patternModels[key]
	ctx.modelMu.Unlock()
	if kept {
		t.Fatal("the oldest planner survived overflowing the cap")
	}
	rebuilt, err := ctx.PlanFor(0, 1, patternBytes, first)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := testContext(t, nil).PlanFor(0, 1, patternBytes, first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt, fresh) {
		t.Fatalf("rebuilt planner's plan differs from a fresh context's:\n%+v\n%+v", rebuilt, fresh)
	}
	if !reflect.DeepEqual(before, fresh) {
		t.Fatalf("original planner's plan differs from a fresh context's:\n%+v\n%+v", before, fresh)
	}
}
