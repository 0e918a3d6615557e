package experiment

import "testing"

// The state-transfer benchmark must show the resume property end to end:
// the post-heal re-send strictly smaller than a full transfer, with the
// group layer's retransmission doing the recovery.
func TestRunStateTransfer(t *testing.T) {
	o := DefaultOptions()
	o.StateBytes = 32 * 1024
	r, err := RunStateTransfer(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.FullBytes < int64(o.StateBytes) {
		t.Fatalf("full transfer sent %d B, want at least the %d B state", r.FullBytes, o.StateBytes)
	}
	if r.BytesAfterHeal <= 0 {
		t.Fatal("resumed transfer sent nothing after heal")
	}
	if r.BytesAfterHeal >= int64(o.StateBytes) {
		t.Fatalf("resume re-sent %d B, not less than the %d B state — cursor not honored",
			r.BytesAfterHeal, o.StateBytes)
	}
	if r.Retransmits <= 0 {
		t.Fatal("the leader's group layer re-sent nothing across the outage")
	}
	if s := RenderStateTransfer(r); s == "" {
		t.Fatal("empty render")
	}
}
