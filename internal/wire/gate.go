package wire

// OpSince is the protocol's version-gate table: every op mapped to the
// version that introduced it. Both the daemon and the fleet coordinator
// consult only this table, so a downlevel client gets the same answer
// from either: an op its version predates, or one the protocol does not
// define (like an actor's internal ops), is CodeUnknownOp. Read-only.
var OpSince = map[string]int{
	OpHello:     1,
	OpAttach:    1,
	OpDetach:    1,
	OpRun:       1,
	OpPause:     1,
	OpResume:    1,
	OpStep:      1,
	OpUntil:     1,
	OpPeek:      1,
	OpPoke:      1,
	OpPeekMem:   1,
	OpPokeMem:   1,
	OpBreak:     1,
	OpClearBrk:  1,
	OpAssert:    1,
	OpSnapSave:  1,
	OpSnapRest:  1,
	OpInspect:   1,
	OpTrace:     1,
	OpInput:     1,
	OpOutput:    1,
	OpSessStat:  1,
	OpStatus:    1,
	OpSubscribe: 1,

	OpPeekBatch: 2,
	OpPokeBatch: 2,

	OpStreamOpen:    3,
	OpStreamCredit:  3,
	OpStreamClose:   3,
	OpHistSeek:      3,
	OpHistRewind:    3,
	OpHistRevCont:   3,
	OpHistSave:      3,
	OpHistLoad:      3,
	OpHistStat:      3,
	OpHistTimelines: 3,
	OpStateExport:   3,
	OpStateImport:   3,
	OpFleetStat:     3,
	OpFleetDrain:    3,
	OpCompileSubmit: 3,
	OpCompileStatus: 3,
	OpCompileCancel: 3,
}

// binaryVersion is the version that introduced the binary codec:
// connections at or above it switch both directions to it after the
// hello.
const binaryVersion = 3

// Speaks reports whether a connection negotiated at ver knows op.
func Speaks(ver int, op string) bool {
	v, ok := OpSince[op]
	return ok && ver >= v
}

// Negotiate settles the version of a connection whose client offered
// offered, on a server capped at ceiling (0 = Version): the lower of the
// two, as long as the client is at least MinVersion.
func Negotiate(offered, ceiling int) (int, *Error) {
	if offered < MinVersion {
		return 0, Errf(CodeVersion, "protocol version %d, server speaks %d..%d",
			offered, MinVersion, Version)
	}
	v := Version
	if ceiling > 0 && ceiling < v {
		v = ceiling
	}
	if offered < v {
		v = offered
	}
	return v, nil
}

// ForVersion returns resp as a connection negotiated at ver may see it:
// v1 predates the typed debugger codes, so it gets one as CodeOp with
// the same message. Cancellation and the admission shed keep their codes
// at every version: daemons always answered v1 cancellations with
// cancelled, and a v1 client with auto-reconnect retries an attach only
// on overloaded. resp itself is never modified, because it may be held
// in a replay cache; a rewrite returns a copy.
func ForVersion(resp *Response, ver int) *Response {
	if resp.Err == nil || ver >= 2 || codeSentinel[resp.Err.Code] == nil ||
		resp.Err.Code == CodeCancelled || resp.Err.Code == CodeOverloaded {
		return resp
	}
	out := *resp
	out.Err = &Error{Code: CodeOp, Msg: resp.Err.Msg}
	return &out
}
