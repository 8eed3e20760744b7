package crash

import "testing"

// TestTxnCrashSweep is the transaction conformance sweep: for every cell
// of the transaction matrix (four two-leg shapes × both engine placements
// × reclamation on/off) and every tracked access offset of an ApplyTxn —
// including mid-transaction-announcement and mid-commit-point — a
// system-wide crash is injected, recovery is driven through RecoverAll's
// transaction report, and every offset must yield the crash-free responses
// and final state, with cross-structure atomicity (a no-effect report
// means neither structure changed; anything else means leg 1's effect
// never outlives recovery without leg 2's) and exactly-once under a
// duplicate recovery pass checked each time.
func TestTxnCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive transaction crash-point sweep")
	}
	for _, sc := range TxnScenarios() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			t.Parallel()
			n, err := RunTxnCase(sc.Build, sc.Case)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d crash points swept", n)
		})
	}
}
