package main

import (
	"strings"
	"testing"
)

// TestScriptGolden pipes the shell a scripted session — one sharePod from
// creation to completion, a malformed create among the commands — and
// compares the whole transcript, prompts included. Virtual time, placement
// and usage are deterministic, so any change to what a command prints or to
// when the cluster gets there shows here.
func TestScriptGolden(t *testing.T) {
	script := `create sharepod sp1 -request 0.4 -limit 0.8 -mem 0.2
create sharepod x -request
run 10s
get sharepods
get vgpus
get usage
wait sp1
quit
`
	want := `cluster up: 2 nodes × 4 GPUs, KubeShare installed. Type 'help'.
[t=0s] > sharepod/sp1 created
[t=1ms] > flag -request needs a value
[t=1ms] > [t=10.001s] > NAME             PHASE      GPUID      REQUEST   LIMIT     NODE
sp1              Running    vgpu-0001  0.40      0.80      node-0
[t=10.001s] > GPUID        PHASE     NODE     UUID
vgpu-0001    Active    node-0   GPU-01636ed2f6696ef4
[t=10.001s] > NAME             PHASE      GPUID      USAGE
sp1              Running    vgpu-0001  0.759
[t=10.001s] > sharepod/sp1 Succeeded at t=15.001s
` + "[t=15.001s] > "
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, 2, 4); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("transcript:\n%s\nwant:\n%s", out.String(), want)
	}
}
