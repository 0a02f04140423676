package main

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/rtl"
	"zoomie/internal/server"
	"zoomie/internal/workloads"
)

// The traced run's edit-recompile section submits resident recompiles
// of new seeded edit tags of a design whose auto-resolved debug partition is one
// unique single-core cluster instance ("mut") inside a static region of
// shared 8-core cluster instances. The farm, VTI and the toolchain do
// nearly all the work; the debug path does none.
const (
	erDesign = "perfbench-edit"
	// erStatic is the number of shared cluster instances around the
	// partition. The recompile's cost grows with the static region, so
	// it is kept small.
	erStatic = 2
	// erTagSpace bounds the seeded edit tags; tag k adds k probe
	// registers to the partition.
	erTagSpace = 48
	// erWarmTag is the warm-up edit, outside the traced tag space.
	erWarmTag = erTagSpace + 1
)

func init() {
	server.Register(erDesign, server.Entry{
		Describe: "manycore cluster partition inside a static cluster region (benchmark)",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			m := zoomie.NewModule("er_top")
			en := m.Input("en", 1)
			out := m.Output("checksum", 32)
			mut := m.Instantiate("mut", workloads.ClusterOf("mut_cluster", []*rtl.Module{workloads.SerCore()}))
			s := m.Wire("mut_sum", 32)
			mut.ConnectInput("en", zoomie.S(en))
			mut.ConnectOutput("acc_sum", s)
			acc := zoomie.S(s)
			static := workloads.Cluster()
			for i := 0; i < erStatic; i++ {
				w := m.Wire(fmt.Sprintf("tile%d_sum", i), 32)
				inst := m.Instantiate(fmt.Sprintf("tile%d", i), static)
				inst.ConnectInput("en", zoomie.S(en))
				inst.ConnectOutput("acc_sum", w)
				acc = zoomie.Xor(acc, zoomie.S(w))
			}
			r := m.Reg("checksum_r", 32, "clk", 0)
			m.SetNext(r, acc)
			m.Connect(out, zoomie.S(r))
			return zoomie.NewDesign("er_top", m), zoomie.DebugConfig{Watches: []string{"checksum"}}
		},
	})
}

// erTags draws the traced edit tags: three, distinct, seeded, from
// [1, erTagSpace].
func erTags(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(erTagSpace)[:6]
	tags := make([]int, len(perm))
	for i, p := range perm {
		tags[i] = p + 1
	}
	return tags
}

var doneRE = regexp.MustCompile(` done total=\S+ cells=\d+ bits=([0-9a-f]+)`)

// submitNew submits one compile and requires it to start a new
// execution: a cache hit or a shared execution is an error. (A new job
// can already be done when the submit is answered, so the attach line,
// not the ticket's Done flag, tells which it was.)
func submitNew(cli *client.Client, mode string, tag int) (*client.CompileTicket, error) {
	t, err := cli.CompileSubmit(erDesign, mode, tag)
	if err != nil {
		return nil, err
	}
	if len(t.Lines) == 0 || !strings.HasSuffix(t.Lines[0], " submitted") {
		return nil, fmt.Errorf("%s tag %d did not start a new execution: %v", mode, tag, t.Lines)
	}
	return t, nil
}

// submitAndFollow submits one compile and waits for the terminal frame
// of its "compile" progress stream.
func submitAndFollow(cli *client.Client, mode string, tag int) (uint64, time.Duration, error) {
	s := time.Now()
	t, err := submitNew(cli, mode, tag)
	if err != nil {
		return 0, 0, err
	}
	st, err := t.Progress(32)
	if err != nil {
		return t.ID, 0, err
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for {
		ev, ok := st.RecvCtx(ctx)
		if !ok {
			return t.ID, 0, fmt.Errorf("compile stream for job %d ended without a terminal frame", t.ID)
		}
		if len(ev.Names) == 0 {
			continue
		}
		switch ev.Names[0] {
		case "done":
			return t.ID, time.Since(s), nil
		case "failed", "cancelled":
			return t.ID, 0, fmt.Errorf("job %d %s", t.ID, ev.Names[0])
		}
	}
}

// jobDigest fetches a finished job's status row and returns the short
// bitstream digest of a job that is done.
func jobDigest(cli *client.Client, id uint64) (string, error) {
	lines, done, err := cli.CompileStatus(id)
	if err != nil {
		return "", err
	}
	if !done || len(lines) == 0 {
		return "", fmt.Errorf("job %d not terminal: %v", id, lines)
	}
	m := doneRE.FindStringSubmatch(lines[0])
	if m == nil {
		return "", fmt.Errorf("job %d not done: %q", id, lines[0])
	}
	return m[1], nil
}
