package medium

import (
	"bytes"
	"testing"
	"time"
)

func TestPipeOrderedDelivery(t *testing.T) {
	p := NewPipe(Profile{})
	defer p.Close()
	for i := range 100 {
		if err := p.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 100 {
		m, err := p.Recv()
		if err != nil || m[0] != byte(i) {
			t.Fatalf("message %d: %v, %v", i, m, err)
		}
	}
}

func TestPipeOrderedDeliveryWithLatency(t *testing.T) {
	p := NewPipe(Profile{Latency: time.Millisecond})
	defer p.Close()
	for i := range 50 {
		p.Send([]byte{byte(i)})
	}
	for i := range 50 {
		m, err := p.Recv()
		if err != nil || m[0] != byte(i) {
			t.Fatalf("latency pipe message %d: %v, %v", i, m, err)
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	p := NewPipe(Profile{Latency: 20 * time.Millisecond})
	defer p.Close()
	start := time.Now()
	p.Send([]byte("x"))
	if _, err := p.Recv(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Errorf("message arrived after %v, want ~20ms", el)
	}
}

func TestLatencyPipelines(t *testing.T) {
	// 10 messages at 20ms latency must take ~20ms total, not 200ms.
	p := NewPipe(Profile{Latency: 20 * time.Millisecond})
	defer p.Close()
	start := time.Now()
	for range 10 {
		p.Send([]byte("x"))
	}
	for range 10 {
		p.Recv()
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("10 messages took %v: latency is serializing", el)
	}
}

func TestBandwidthPacesSender(t *testing.T) {
	p := NewPipe(Profile{Bandwidth: 1 << 20}) // 1 MB/s
	defer p.Close()
	start := time.Now()
	for range 10 {
		p.Send(make([]byte, 10*1024)) // 100 KiB total -> ~100ms
	}
	if el := time.Since(start); el < 70*time.Millisecond {
		t.Errorf("100KB at 1MB/s paced in %v", el)
	}
}

func TestMTURejected(t *testing.T) {
	p := NewPipe(Profile{MTU: 100})
	defer p.Close()
	if err := p.Send(make([]byte, 101)); err != ErrTooLong {
		t.Errorf("over-MTU send = %v", err)
	}
	if err := p.Send(make([]byte, 100)); err != nil {
		t.Errorf("at-MTU send = %v", err)
	}
}

func TestLossDrops(t *testing.T) {
	p := NewPipe(Profile{Loss: 1.0, Seed: 3})
	defer p.Close()
	for range 20 {
		p.Send([]byte("gone"))
	}
	done := make(chan bool, 1)
	go func() {
		p.Recv()
		done <- true
	}()
	select {
	case <-done:
		t.Error("message survived loss=1.0")
	case <-time.After(50 * time.Millisecond):
	}
	p.Close()
}

func TestCloseUnblocksReceiver(t *testing.T) {
	p := NewPipe(Profile{})
	errs := make(chan error, 1)
	go func() {
		_, err := p.Recv()
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	p.Close()
	select {
	case err := <-errs:
		if err != ErrClosed {
			t.Errorf("receiver error %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("receiver not unblocked")
	}
	if err := p.Send([]byte("x")); err != ErrClosed {
		t.Errorf("send after close = %v", err)
	}
}

func TestRecvDrainsQueueAfterClose(t *testing.T) {
	p := NewPipe(Profile{})
	p.Send([]byte("still here"))
	p.Close()
	m, err := p.Recv()
	if err != nil || !bytes.Equal(m, []byte("still here")) {
		t.Errorf("drain after close: %q, %v", m, err)
	}
}

func TestDuplex(t *testing.T) {
	a, b := NewDuplex(Profile{})
	defer a.Close()
	a.Send([]byte("to b"))
	m, err := b.Recv()
	if err != nil || string(m) != "to b" {
		t.Fatalf("a->b: %q, %v", m, err)
	}
	b.Send([]byte("to a"))
	m, err = a.Recv()
	if err != nil || string(m) != "to a" {
		t.Fatalf("b->a: %q, %v", m, err)
	}
	if a.MTU() != 0 {
		t.Errorf("unlimited MTU = %d", a.MTU())
	}
}
