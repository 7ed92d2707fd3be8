package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"sdpolicy"
)

// lineStream is a worker's attach stream for the shard {1,3,4} of a
// campaign of five zero points, as FuzzShardStream serves it, with the
// number of its frames read line by line.
type lineStream struct {
	name   string
	stream []byte
	lines  int
}

// lineStreams returns streams whose result frames carry point, the
// campaign's own encoding of each of its points, as a real worker's
// frames do: one of result lines only, and near misses of the line
// layout, each between two result lines. FuzzShardStream checks that
// shardStream reads each as json.Decoder does, so runShard reaches the
// verdict it reached before the line path.
func lineStreams(tb testing.TB, point []byte) []lineStream {
	tb.Helper()
	result := func(i int) string {
		b, err := json.Marshal(&sdpolicy.Result{Workload: "wl5-small", Policy: "sd-policy",
			Jobs: 3, Makespan: 3600 + int64(i), AvgSlowdown: 1.2})
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	frame := func(seq, index, pt, res string) string {
		return `{"seq":` + seq + `,"index":` + index + `,"point":` + pt + `,"result":` + res + "}\n"
	}
	p := string(point)
	line := func(seq, i int) string { return frame(strconv.Itoa(seq), strconv.Itoa(i), p, result(i)) }
	between := func(second string) []byte {
		return []byte(line(1, 0) + second + line(3, 2) + `{"seq":4,"done":true,"points":3}` + "\n")
	}
	return []lineStream{
		{"result-lines", between(line(2, 1)), 3},
		{"leading-zero-seq", between(frame("02", "1", p, result(1))), 1},
		{"seq-past-uint64", between(frame("18446744073709551616", "1", p, result(1))), 1},
		{"result-null", between(frame("2", "1", p, "null")), 1},
		{"point-one-byte-off", between(frame("2", "1", strings.Replace(p, "0", "1", 1), result(1))), 1},
		{"point-one-byte-off-invalid", between(frame("2", "1", p[:len(p)-1]+"]", result(1))), 1},
		{"two-frames-one-line", between(strings.TrimSuffix(line(2, 1), "\n")), 1},
		{"frame-split-across-lines", between(strings.Replace(line(2, 1), `"result":`, "\n"+`"result":`, 1)), 1},
		{"index-out-of-range", between(frame("2", "3", p, result(1))), 1},
	}
}

// TestShardStreamNearMisses: on each of lineStreams, shardStream reads
// exactly the result lines before the first near miss line by line.
func TestShardStreamNearMisses(t *testing.T) {
	cs, err := newCampaignState("s", make([]sdpolicy.Point, 5), nil, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range lineStreams(t, cs.wire[1]) {
		frames := newShardStream(bytes.NewReader(tc.stream), [][]byte{cs.wire[1], cs.wire[3], cs.wire[4]})
		for frames.next(new(streamFrame)) == nil {
		}
		if frames.lines != tc.lines {
			t.Errorf("%s: %d frames read line by line, want %d", tc.name, frames.lines, tc.lines)
		}
	}
}
