package introspect

import (
	"bytes"
	"testing"
	"time"
)

// FuzzEventChannel drives arbitrary interleavings of emits and
// receives through the bounded channel and holds it to
// its accounting identity: at quiescence every emitted event is
// exactly one of delivered, buffered, or dropped; receives come out
// in FIFO order with strictly increasing sequence numbers; and the
// synchronous tap sees every emit, including the dropped ones.
func FuzzEventChannel(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x01, 0x02, 0x06, 0x06, 0x07})
	f.Add([]byte{0x02, 0x05, 0x05, 0x05, 0x05, 0x05, 0x06, 0x04, 0x03, 0x07})
	f.Add(bytes.Repeat([]byte{0x00, 0x06}, 32))
	f.Add(bytes.Repeat([]byte{0x03, 0x04}, 9))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0]&0x0F) + 1 // 1..16: small enough to overflow
		ops = ops[1:]
		ch := NewChannel(capacity)
		var tapped uint64
		ch.SetTap(func(Event) { tapped++ })

		var (
			emitted   uint64
			delivered uint64
			lastSeq   uint64
		)
		recv := func(ev Event) {
			delivered++
			if ev.Seq <= lastSeq {
				t.Fatalf("sequence went backwards: %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		for _, op := range ops {
			switch op % 8 {
			case 0:
				ch.OnExecWrite(uint64(op)<<4, int(op%7)+1, emitted)
				emitted++
			case 1, 2, 3, 4:
				ch.OnSMIExit(op, time.Duration(emitted))
				emitted++
			case 5:
				ch.OnSMIEnter(op)
				emitted++
			case 6:
				if ev, ok := ch.TryRecv(); ok {
					recv(ev)
				}
			case 7:
				for _, ev := range ch.Drain(nil) {
					recv(ev)
				}
			}
		}
		for _, ev := range ch.Drain(nil) {
			recv(ev)
		}

		st := ch.Stats()
		if st.Emitted != emitted {
			t.Fatalf("emitted = %d, channel counted %d", emitted, st.Emitted)
		}
		if tapped != emitted {
			t.Fatalf("tap saw %d of %d emits", tapped, emitted)
		}
		if st.Buffered != 0 {
			t.Fatalf("events still buffered after drain: %+v", st)
		}
		if st.Delivered != delivered {
			t.Fatalf("delivered = %d, channel counted %d", delivered, st.Delivered)
		}
		if st.Emitted != st.Delivered+st.Buffered+st.Dropped {
			t.Fatalf("accounting identity violated: %+v", st)
		}
	})
}
