package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/ooc"
)

func TestWireRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgInit, Dir: "/tmp/run", GraphPath: GraphFileName, Compress: true,
			WorkerID: "worker-2", PingMS: 250},
		{Type: MsgReady, ScratchBytes: 4096, Host: "h", PID: 99},
		{Type: MsgLease, LeaseID: 7, ShardTask: ooc.ShardTask{K: 3,
			Shard: ooc.ShardMeta{Path: "l003-000001.ooc", Records: 12, Runs: 3, Bytes: 80, RawBytes: 144},
			Index: 4, Attempt: 2, Target: 1 << 16, Collect: true}},
		{Type: MsgResult, LeaseID: 7, ShardResult: ooc.ShardResult{Maximal: 3,
			Out:       []ooc.ShardMeta{{Path: "l004-s00004-a02-001.ooc", Records: 2, Runs: 1, Bytes: 30, RawBytes: 32}},
			EmitVerts: []int{0, 1, 2, 4, 5, 6}, EmitOff: []int32{3, 6}, BytesRead: 80}},
		{Type: MsgHeartbeat},
		{Type: MsgError, LeaseID: 7, Error: "boom"},
		{Type: MsgShutdown},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg(%s): %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("ReadMsg(%s): %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %s:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestWireTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{Type: MsgHeartbeat}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMsg(bytes.NewReader(trunc)); err == nil || err == io.EOF {
		t.Errorf("truncated body: err = %v, want mid-frame error", err)
	}
	if _, err := ReadMsg(bytes.NewReader(buf.Bytes()[:2])); err == nil || err == io.EOF {
		t.Errorf("truncated header: err = %v, want mid-frame error", err)
	}
}

func TestWireOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := ReadMsg(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversize frame accepted")
	}
}
