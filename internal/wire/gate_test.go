package wire

import "testing"

// TestForVersionCopies: a v1 connection sees a typed code as CodeOp, and
// the rewrite never touches the response it was given, which may be the
// one a replay cache holds for a later reconnect at a newer version.
func TestForVersionCopies(t *testing.T) {
	orig := &Response{ID: 7, Err: Errf(CodeUnknownState, "no state element %q", "x")}
	v1 := ForVersion(orig, 1)
	if v1 == orig || v1.Err.Code != CodeOp || v1.Err.Msg != orig.Err.Msg || v1.ID != 7 {
		t.Fatalf("v1 view = %+v (err %+v), want a CodeOp copy", v1, v1.Err)
	}
	if orig.Err.Code != CodeUnknownState {
		t.Fatalf("rewrite mutated the original: %s", orig.Err.Code)
	}
	if got := ForVersion(orig, 2); got != orig {
		t.Fatal("v2 connection should get the response unchanged")
	}
	for _, code := range []string{CodeBusy, CodeCancelled, CodeOverloaded} {
		r := &Response{Err: Errf(code, "x")}
		if got := ForVersion(r, 1); got != r {
			t.Fatalf("%s must reach a v1 connection unchanged", code)
		}
	}
}

func TestNegotiate(t *testing.T) {
	for _, tc := range []struct{ offered, ceiling, want int }{
		{Version + 5, 0, Version},
		{1, 0, 1},
		{3, 2, 2},
		{2, 3, 2},
	} {
		got, err := Negotiate(tc.offered, tc.ceiling)
		if err != nil || got != tc.want {
			t.Errorf("Negotiate(%d, %d) = %d, %v; want %d", tc.offered, tc.ceiling, got, err, tc.want)
		}
	}
	if _, err := Negotiate(MinVersion-1, 0); err == nil || err.Code != CodeVersion {
		t.Errorf("Negotiate below MinVersion = %v, want %s", err, CodeVersion)
	}
}

func TestSpeaks(t *testing.T) {
	if !Speaks(1, OpPeek) || Speaks(1, OpPeekBatch) || !Speaks(2, OpPeekBatch) || Speaks(2, OpHistSeek) {
		t.Error("gate table disagrees with the version history")
	}
	for _, name := range []string{"", "nosuchop", CodeUnknownState} {
		if Speaks(Version, name) {
			t.Errorf("Speaks(%q) = true for a name that is not an op", name)
		}
	}
}
