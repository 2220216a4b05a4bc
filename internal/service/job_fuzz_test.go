package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzJobSpec feeds arbitrary request bodies through the submission path
// a POST /v1/jobs takes before anything is queued: decodeSpec, Normalize,
// Validate. None of them may panic. Normalize must be idempotent, so the
// stored spec is the one validation saw. A spec Validate accepts must
// survive the WAL's JSON encoding unchanged and still validate, so a
// restarted daemon replays exactly the job it accepted.
func FuzzJobSpec(f *testing.F) {
	synthSpec := `{"states":[{"name":"s0","label":"up"},{"name":"s1","label":"right"}],"start":"s0","edges":[{"from":"s0","to":"s1","p":1},{"from":"s1","to":"s0","p":1}]}`
	synthBody, err := json.Marshal(JobSpec{Kind: KindShard, SynthSpecs: []string{synthSpec}, SynthDs: []int64{4}, Trials: 3, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	// The retired synth kind, as an old client sends it.
	retiredBody := strings.Replace(string(synthBody), `"kind":"shard"`, `"kind":"synth"`, 1)
	for _, body := range []string{
		// The CI smoke's submission.
		`{"kind":"sweep","sweep":"s1","quick":true,"seed":1}`,
		`{"kind":"shard","sweep":"s1","quick":true,"points":[0,2],"seed":7}`,
		`{"kind":"scenario","scenario":"torus:l=48","d":8,"n":4,"trials":2,"seed":3}`,
		`{"kind":"scenario","scenario":"field","algo":"uniform","d":16,"ell":2,"budget":4096}`,
		// More agents than any engine accepts: a 400, never a job.
		`{"kind":"scenario","scenario":"open","n":1099511627776}`,
		fmt.Sprintf(`{"kind":"scenario","scenario":"open","n":%d}`, sim.MaxAgents),
		string(synthBody),
		retiredBody,
		// An empty list must come back from the WAL as the same spec.
		`{"kind":"sweep","sweep":"s1","points":[]}`,
		`{"kind":"sweep","sweep":"s1","workers":-1}`,
		`{"kind":"sweep","sweep":"s1","bogus":1}`,
		`{"kind":"scenario"}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec.Normalize()
		again := spec
		again.Normalize()
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v", spec, again)
		}
		if spec.Validate() != nil {
			return
		}
		data, err := json.Marshal(walRecord{Kind: walKindSubmit, Job: "j000001", Spec: &spec})
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		var back walRecord
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("WAL record %s does not decode: %v", data, err)
		}
		if !reflect.DeepEqual(*back.Spec, spec) {
			t.Fatalf("WAL round trip changed the spec: %+v, replayed as %+v", spec, *back.Spec)
		}
		if err := back.Spec.Validate(); err != nil {
			t.Fatalf("replayed spec %+v no longer validates: %v", *back.Spec, err)
		}
	})
}
