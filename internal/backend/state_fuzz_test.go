package backend_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/workload"
)

// FuzzRestoreState: RestoreSet of a static cloud and of a band cloud
// must return an error or restore without a panic, and a state it accepts
// must AppendState back to the same bytes. Each input restores at the
// request index its own header names, so the fuzzer reaches the payload
// checks rather than stopping at the base check (which
// TestCloudStateRejectsMismatch covers). The corpus is seeded with real
// states of both modes at several cut points; the static cloud is seeded
// with the sample's files in first-appearance order, as a census seeds it.
func FuzzRestoreState(f *testing.F) {
	tr, err := workload.Generate(workload.DefaultConfig(300, fixtureSeed))
	if err != nil {
		f.Fatal(err)
	}
	files, sample := tr.Files, tr.Requests[:min(400, len(tr.Requests))]
	census := censusFiles(sample)
	var pop int64
	for _, file := range files {
		pop += file.Size
	}
	static := cloud.DefaultConfig(float64(len(census))/cloud.FullScaleFiles, fixtureSeed)
	band := cloud.DefaultConfig(float64(len(files))/cloud.FullScaleFiles, fixtureSeed)
	band.CachePolicy = "band"
	band.PoolCapacity = pop / 12
	clouds := []struct {
		files []*workload.FileMeta
		cfg   cloud.Config
	}{{census, static}, {files, band}}
	for _, mk := range clouds {
		for _, cut := range []int{0, 1, len(sample) / 2, len(sample)} {
			c := backend.NewCloud(mk.files, mk.cfg, fixtureSeed)
			c.Prime(sample[:cut])
			state, err := c.AppendState(nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(state)
		}
	}

	f.Fuzz(func(t *testing.T, state []byte) {
		base := 0
		if len(state) >= 9 {
			base = int(binary.LittleEndian.Uint64(state[1:9]))
		}
		for _, mk := range clouds {
			set, err := backend.NewWorld(mk.files, mk.cfg, fixtureSeed).RestoreSet(state, base)
			if err != nil {
				continue
			}
			c := set.Cloud
			got, err := c.AppendState(nil)
			if err != nil {
				t.Fatalf("%s: AppendState after a restore: %v", c.PolicyLabel(), err)
			}
			if !bytes.Equal(got, state) {
				t.Fatalf("%s: restored state appends back as\n%x\nwant\n%x", c.PolicyLabel(), got, state)
			}
		}
	})
}
