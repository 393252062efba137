package orb

// Unit tests for the striped channel pool, driven by a scripted fake
// transport: lazy dialing, round-robin distribution, eviction and
// redial of failed or unusable stripes, context-attributed errors
// leaving stripes alone, PoolSizer sizing, and Close semantics.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corbalc/internal/giop"
	"corbalc/internal/leak"
	"corbalc/internal/race"
)

// skipUnderRace skips tests that assert exact per-stripe dial counts:
// stripe affinity rides on sync.Pool, and under -race sync.Pool drops a
// random quarter of Put items, reseeding hints nondeterministically. The
// pool's failure and concurrency behaviour stays covered under race by
// the failover and context tests.
func skipUnderRace(t *testing.T) {
	if race.Enabled {
		t.Skip("stripe-affinity dial counts are nondeterministic under -race (sync.Pool drops Puts)")
	}
}

// fakeChannel is a scriptable Channel stripe.
type fakeChannel struct {
	id       int
	calls    atomic.Int32
	closed   atomic.Bool
	dead     atomic.Bool // Unusable() reports this
	callErr  error       // returned by every Call when non-nil
	onceFail atomic.Bool // fail exactly the next Call
}

func (f *fakeChannel) Call(ctx context.Context, req *giop.Message, requestID uint32) (*giop.Message, error) {
	f.calls.Add(1)
	if f.onceFail.CompareAndSwap(true, false) {
		return nil, fmt.Errorf("fake: stripe %d write failed", f.id)
	}
	if f.callErr != nil {
		return nil, f.callErr
	}
	return nil, nil
}

func (f *fakeChannel) Send(ctx context.Context, req *giop.Message) error {
	_, err := f.Call(ctx, req, 0)
	return err
}

func (f *fakeChannel) Close() error {
	f.closed.Store(true)
	return nil
}

func (f *fakeChannel) Unusable() bool { return f.dead.Load() }

// fakeTransport dials fakeChannels and records them in dial order.
type fakeTransport struct {
	poolSize int
	dialErr  error
	gate     chan struct{} // when set, a Dial waits for it to close (or its context)

	mu       sync.Mutex
	attempts int
	dialed   []*fakeChannel
	nextErr  error // fail exactly the next Dial
}

func (t *fakeTransport) Tag() uint32                             { return 0xFA4E }
func (t *fakeTransport) Endpoint(profile []byte) (string, error) { return string(profile), nil }
func (t *fakeTransport) ChannelPoolSize() int                    { return t.poolSize }

func (t *fakeTransport) Dial(ctx context.Context, profile []byte) (Channel, error) {
	t.mu.Lock()
	t.attempts++
	t.mu.Unlock()
	if t.gate != nil {
		select {
		case <-t.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nextErr != nil {
		err := t.nextErr
		t.nextErr = nil
		return nil, err
	}
	if t.dialErr != nil {
		return nil, t.dialErr
	}
	ch := &fakeChannel{id: len(t.dialed)}
	t.dialed = append(t.dialed, ch)
	return ch, nil
}

func (t *fakeTransport) dials() []*fakeChannel {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*fakeChannel(nil), t.dialed...)
}

func (t *fakeTransport) dialAttempts() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

func TestPoolLazyDialAndStripeAffinity(t *testing.T) {
	skipUnderRace(t)
	leak.Check(t)
	tr := &fakeTransport{poolSize: 4}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	ctx := context.Background()

	// Stripes dial lazily: the first call opens one connection, not four.
	if _, err := p.Call(ctx, nil, 1); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.dials()); n != 1 {
		t.Fatalf("dials after first call = %d, want 1 (lazy)", n)
	}
	for i := 0; i < 7; i++ {
		if _, err := p.Call(ctx, nil, uint32(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	// Stripe selection is processor-affine: one caller on one core keeps
	// its stripe, so the other three are never dialed.
	chans := tr.dials()
	if len(chans) != 1 {
		t.Fatalf("dials after 8 calls = %d, want 1 (affine caller sticks to its stripe)", len(chans))
	}
	if got := chans[0].calls.Load(); got != 8 {
		t.Fatalf("stripe %d served %d calls, want all 8", chans[0].id, got)
	}
}

func TestPoolFreshHintsSpreadAcrossStripes(t *testing.T) {
	leak.Check(t)
	tr := &fakeTransport{poolSize: 4}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	ctx := context.Background()

	// Steal the affinity token after every call: each subsequent caller
	// then plays the part of a fresh core and must be seeded onto the
	// next stripe round-robin.
	for i := 0; i < 4; i++ {
		if _, err := p.Call(ctx, nil, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
		p.hints.Get()
	}
	chans := tr.dials()
	if len(chans) != 4 {
		t.Fatalf("dials = %d, want 4 (fresh hints spread round-robin)", len(chans))
	}
	for _, ch := range chans {
		if got := ch.calls.Load(); got != 1 {
			t.Fatalf("stripe %d served %d calls, want 1", ch.id, got)
		}
	}
}

func TestPoolEvictsFailedStripeAndRedials(t *testing.T) {
	skipUnderRace(t)
	leak.Check(t)
	tr := &fakeTransport{poolSize: 2}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := p.Call(ctx, nil, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	victim := tr.dials()[0]
	victim.onceFail.Store(true)

	// Drive calls until the scripted failure surfaces; the error must
	// reach the caller (no transparent retry) and evict the stripe.
	var failed bool
	for i := 0; i < 2 && !failed; i++ {
		_, err := p.Call(ctx, nil, uint32(10+i))
		failed = err != nil
	}
	if !failed {
		t.Fatal("scripted stripe failure never surfaced to the caller")
	}
	if !victim.closed.Load() {
		t.Fatal("failed stripe was not evicted (Close not called)")
	}

	// The evicted slot redials lazily (the caller's affinity hint still
	// points at it) and keeps serving.
	for i := 0; i < 4; i++ {
		if _, err := p.Call(ctx, nil, uint32(20+i)); err != nil {
			t.Fatalf("call after eviction: %v", err)
		}
	}
	if n := len(tr.dials()); n != 2 {
		t.Fatalf("dials after redial = %d, want 2 (1 initial + 1 replacement)", n)
	}
}

func TestPoolUnusableStripeEvictedWithoutWastingACall(t *testing.T) {
	skipUnderRace(t)
	leak.Check(t)
	tr := &fakeTransport{poolSize: 2}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := p.Call(ctx, nil, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	dead := tr.dials()[0]
	served := dead.calls.Load()
	dead.dead.Store(true) // e.g. its read loop noticed the peer vanish

	for i := 0; i < 4; i++ {
		if _, err := p.Call(ctx, nil, uint32(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := dead.calls.Load(); got != served {
		t.Fatalf("unusable stripe served %d more calls, want 0 (eager eviction)", got-served)
	}
	if !dead.closed.Load() {
		t.Fatal("unusable stripe not closed on eviction")
	}
	if n := len(tr.dials()); n != 2 {
		t.Fatalf("dials = %d, want 2 (replacement dialed)", n)
	}
}

func TestPoolContextErrorDoesNotEvict(t *testing.T) {
	leak.Check(t)
	tr := &fakeTransport{poolSize: 1}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()

	if _, err := p.Call(context.Background(), nil, 1); err != nil {
		t.Fatal(err)
	}
	ch := tr.dials()[0]
	ch.callErr = context.Canceled

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Call(ctx, nil, 2); err == nil {
		t.Fatal("cancelled call reported success")
	}
	// The caller gave up; the connection is healthy and must survive.
	if ch.closed.Load() {
		t.Fatal("healthy stripe evicted on a context-attributed error")
	}
	ch.callErr = nil
	if _, err := p.Call(context.Background(), nil, 3); err != nil {
		t.Fatalf("call after ctx cancel: %v", err)
	}
	if n := len(tr.dials()); n != 1 {
		t.Fatalf("dials = %d, want 1 (no eviction, no redial)", n)
	}
}

// TestPoolColdBurstDialsOncePerStripe sends 16 concurrent first calls
// onto a cold pool of 2 stripes whose dials take 20ms: at most one
// connection per stripe is dialed, none is closed as a lost race, and
// every call is served.
func TestPoolColdBurstDialsOncePerStripe(t *testing.T) {
	leak.Check(t)
	const stripes, callers = 2, 16
	tr := &fakeTransport{poolSize: stripes, gate: make(chan struct{})}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	time.AfterFunc(20*time.Millisecond, func() { close(tr.gate) })
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Call(context.Background(), nil, uint32(i+1)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := tr.dialAttempts(); n > stripes {
		t.Fatalf("%d concurrent first calls dialed %d connections onto %d stripes", callers, n, stripes)
	}
	for _, ch := range tr.dials() {
		if ch.closed.Load() {
			t.Fatalf("stripe %d was dialed only to be closed", ch.id)
		}
	}
}

// TestPoolDialWaitHonoursContext parks a second caller behind the first
// caller's dial in flight on a one-stripe pool: its deadline returns it
// without a dial of its own, and the first dial still lands.
func TestPoolDialWaitHonoursContext(t *testing.T) {
	leak.Check(t)
	tr := &fakeTransport{poolSize: 1, gate: make(chan struct{})}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	open := sync.OnceFunc(func() { close(tr.gate) })
	defer open() // a failure before the gate opens must not strand the first caller
	first := make(chan error, 1)
	go func() {
		_, err := p.Call(context.Background(), nil, 1)
		first <- err
	}()
	for tr.dialAttempts() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Call(ctx, nil, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting caller's err = %v, want its deadline", err)
	}
	if n := tr.dialAttempts(); n != 1 {
		t.Fatalf("dial attempts = %d, want 1 (the waiter dials nothing)", n)
	}
	open()
	if err := <-first; err != nil {
		t.Fatalf("first caller: %v", err)
	}
	if n := len(tr.dials()); n != 1 {
		t.Fatalf("dials = %d, want 1", n)
	}
}

func TestPoolDialFailureSkipsToSurvivor(t *testing.T) {
	leak.Check(t)
	tr := &fakeTransport{poolSize: 2}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := p.Call(ctx, nil, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill stripe 0 and make its redial fail once: pick must fall
	// through to the survivor instead of failing the call.
	tr.dials()[0].dead.Store(true)
	tr.mu.Lock()
	tr.nextErr = errors.New("fake: endpoint briefly unreachable")
	tr.mu.Unlock()
	for i := 0; i < 4; i++ {
		if _, err := p.Call(ctx, nil, uint32(10+i)); err != nil {
			t.Fatalf("call with one stripe down: %v", err)
		}
	}
}

func TestPoolAllStripesDownReportsDialError(t *testing.T) {
	leak.Check(t)
	dialErr := errors.New("fake: endpoint down")
	tr := &fakeTransport{poolSize: 3, dialErr: dialErr}
	p := newChannelPool(tr, []byte("ep"))
	defer p.Close()

	if _, err := p.Call(context.Background(), nil, 1); !errors.Is(err, dialErr) {
		t.Fatalf("err = %v, want the dial error when every stripe is down", err)
	}
}

func TestPoolSizerHonored(t *testing.T) {
	leak.Check(t)
	if p := newChannelPool(&fakeTransport{poolSize: 6}, nil); p.size != 6 {
		t.Fatalf("size = %d, want 6 from PoolSizer", p.size)
	}
	// Below-1 answers and transports without the interface pool a
	// single channel (pool-transparent).
	if p := newChannelPool(&fakeTransport{poolSize: -1}, nil); p.size != 1 {
		t.Fatalf("size = %d, want 1 for PoolSizer < 1", p.size)
	}
}

func TestPoolCloseClosesStripesAndFailsFast(t *testing.T) {
	leak.Check(t)
	tr := &fakeTransport{poolSize: 3}
	p := newChannelPool(tr, []byte("ep"))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.Call(ctx, nil, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	dialed := len(tr.dials())
	for _, ch := range tr.dials() {
		if !ch.closed.Load() {
			t.Fatalf("stripe %d not closed by pool Close", ch.id)
		}
	}
	if _, err := p.Call(ctx, nil, 9); !errors.Is(err, errPoolClosed) {
		t.Fatalf("call after Close = %v, want errPoolClosed", err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if n := len(tr.dials()); n != dialed {
		t.Fatalf("dials = %d, want %d (no post-Close redial)", n, dialed)
	}
}
