package harness

import (
	"fmt"
	"strings"

	"adhocrace/internal/detect"
)

// ReportFingerprint renders everything a Report exposes except the shadow
// accounting and the representation counters: ShadowBytes charges what the
// current representation holds (and what the shadow GC has retired), and
// the promotion / epoch-hit counters exist only in particular
// representations. Warnings — every field — and all detection counters
// must match byte for byte. This is the equality bar of the golden
// fingerprint file (detect/testdata/golden_fingerprints.txt, checked by
// TestGoldenFingerprints), the shadow-GC equivalence tests, and the server
// conformance suite (reports streamed through raced vs direct
// Prepared.Run).
func ReportFingerprint(rep *detect.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s events=%d spinEdges=%d spinLoops=%d inferredLocks=%d\n",
		rep.Config.Name, rep.Events, rep.SpinEdges, rep.SpinLoops, rep.InferredLockWords)
	fmt.Fprintf(&b, "racyContexts=%d contexts=%v\n", rep.RacyContexts(), rep.ContextList())
	for i, w := range rep.Warnings {
		fmt.Fprintf(&b, "warning[%d]=%+v\n", i, w)
	}
	return b.String()
}
