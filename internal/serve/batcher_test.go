package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/crossbar"
)

// echoInfer returns each row's first feature truncated to int — enough to
// check request/response pairing without a model.
func echoInfer(rows [][]float32) ([]int, crossbar.Stats, error) {
	preds := make([]int, len(rows))
	for i, row := range rows {
		preds[i] = int(row[0])
	}
	return preds, crossbar.Stats{}, nil
}

// gate holds the first batch inside the backend until it is opened. While
// that batch executes, a test can queue requests behind it and know exactly
// how continuous batching will cut them: the dispatcher takes up to MaxBatch
// of them per batch once the gate opens.
type gate struct {
	entered chan struct{} // closed once the first batch is inside infer
	open    chan struct{} // closed by the test to release the first batch

	mu    sync.Mutex
	sizes []int // rows per backend call, in dispatch order
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), open: make(chan struct{})}
}

func (g *gate) wrap(infer InferFn) InferFn {
	return func(rows [][]float32) ([]int, crossbar.Stats, error) {
		g.mu.Lock()
		g.sizes = append(g.sizes, len(rows))
		first := len(g.sizes) == 1
		g.mu.Unlock()
		if first {
			close(g.entered)
			<-g.open
		}
		return infer(rows)
	}
}

func (g *gate) batchSizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.sizes...)
}

func TestBatcherPairsRequestsToResponses(t *testing.T) {
	g := newGate()
	b := NewBatcher(BatcherConfig{MaxBatch: 8}, g.wrap(echoInfer), nil)
	defer b.Close()
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	preds := make([]int, n)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			preds[i], errs[i] = b.Submit(context.Background(), []float32{float32(i)})
		}()
	}
	submit(0)
	<-g.entered // request 0 runs alone; the rest queue behind it
	for i := 1; i < n; i++ {
		submit(i)
	}
	waitDepth(t, b, n-1)
	close(g.open)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if preds[i] != i {
			t.Fatalf("request %d got prediction %d — responses crossed", i, preds[i])
		}
	}
	st := b.Metrics().Snapshot(b.Depth())
	if st.Admitted != n || st.Completed != n {
		t.Fatalf("admitted %d completed %d, want %d", st.Admitted, st.Completed, n)
	}
	// One lone batch, then the 63 queued rows in full batches of 8 and a
	// last batch of 7.
	if want := 1 + (n-1+7)/8; st.Batches != uint64(want) {
		t.Fatalf("%d batches for %d requests, want %d (sizes %v)", st.Batches, n, want, g.batchSizes())
	}
}

// Continuous batching: rows that queue while a batch executes form the next
// batch whole, and MaxBatch still caps it — MaxBatch+3 queued rows go out
// as a batch of MaxBatch and a batch of 3.
func TestBatcherQueuedRowsFormNextBatch(t *testing.T) {
	const maxBatch = 8
	for _, k := range []int{5, maxBatch, maxBatch + 3} {
		t.Run(fmt.Sprintf("queued=%d", k), func(t *testing.T) {
			g := newGate()
			b := NewBatcher(BatcherConfig{MaxBatch: maxBatch}, g.wrap(echoInfer), nil)
			defer b.Close()
			results := make(chan error, k+1)
			submit := func(v int) {
				go func() {
					pred, err := b.Submit(context.Background(), []float32{float32(v)})
					if err == nil && pred != v {
						err = fmt.Errorf("row %d predicted %d", v, pred)
					}
					results <- err
				}()
			}
			submit(0)
			<-g.entered
			for i := 1; i <= k; i++ {
				submit(i)
			}
			waitDepth(t, b, k)
			close(g.open)
			for i := 0; i <= k; i++ {
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
			want := []int{1, k}
			if k > maxBatch {
				want = []int{1, maxBatch, k - maxBatch}
			}
			if got := g.batchSizes(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("batch sizes %v, want %v", got, want)
			}
		})
	}
}

// A lone request on an idle lane is dispatched at once as a batch of one:
// nothing holds it back waiting for company, however large MaxBatch is.
func TestBatcherFlushesLoneRequestAfterMaxDelay(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1000}, echoInfer, nil)
	defer b.Close()
	pred, err := b.Submit(context.Background(), []float32{42})
	if err != nil || pred != 42 {
		t.Fatalf("got (%d, %v)", pred, err)
	}
	if st := b.Metrics().Snapshot(0); st.Batches != 1 || st.BatchSizes["1"] != 1 {
		t.Fatalf("%d batches, batch-size histogram %v, want one batch of 1", st.Batches, st.BatchSizes)
	}
}

func TestBatcherBackpressure(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		started <- struct{}{}
		<-release
		return echoInfer(rows)
	}
	const depth = 4
	b := NewBatcher(BatcherConfig{MaxBatch: 1, QueueDepth: depth}, blocked, nil)

	results := make(chan error, depth+1)
	submit := func() {
		_, err := b.Submit(context.Background(), []float32{1})
		results <- err
	}
	go submit()
	<-started // the dispatcher now holds one request inside infer
	for i := 0; i < depth; i++ {
		go submit()
	}
	// The queue is full (depth admitted, one in flight); admission must now
	// fail fast, not block.
	waitDepth(t, b, depth)
	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit returned %v, want ErrQueueFull", err)
	}
	if st := b.Metrics().Snapshot(0); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	close(release)
	for i := 0; i < depth; i++ {
		<-started // let the remaining batches through
	}
	for i := 0; i < depth+1; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	b.Close()
}

// waitDepth polls until the admission queue holds want requests; the
// goroutines submitting them are concurrent with the caller.
func waitDepth(t *testing.T, b *Batcher, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Depth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", b.Depth(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestBatcherSkipsCanceledRequests(t *testing.T) {
	g := newGate()
	b := NewBatcher(BatcherConfig{MaxBatch: 2}, g.wrap(echoInfer), nil)
	defer b.Close()

	errBlocker := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float32{1})
		errBlocker <- err
	}()
	<-g.entered // the blocker's batch holds the dispatcher inside infer

	// A and B queue behind it, so they form the next batch together.
	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctxA, []float32{2})
		errA <- err
	}()
	waitDepth(t, b, 1)
	type outcome struct {
		pred int
		err  error
	}
	resB := make(chan outcome, 1)
	go func() {
		pred, err := b.Submit(context.Background(), []float32{7})
		resB <- outcome{pred, err}
	}()
	waitDepth(t, b, 2)
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}
	close(g.open)
	if err := <-errBlocker; err != nil {
		t.Fatalf("blocker request: %v", err)
	}
	if r := <-resB; r.err != nil || r.pred != 7 {
		t.Fatalf("live request got (%d, %v)", r.pred, r.err)
	}
	// The blocker ran alone; the [A, B] batch reached the backend with A
	// shed, so B was the only row evaluated.
	if got := g.batchSizes(); fmt.Sprint(got) != "[1 1]" {
		t.Fatalf("backend batch sizes %v, want [1 1] — canceled work was not shed", got)
	}
	if st := b.Metrics().Snapshot(0); st.Canceled != 1 {
		t.Fatalf("canceled = %d, want 1", st.Canceled)
	}
}

func TestBatcherPropagatesBackendError(t *testing.T) {
	boom := errors.New("substrate fault")
	failing := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		return nil, crossbar.Stats{}, boom
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, failing, nil)
	defer b.Close()
	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the backend error", err)
	}
	if st := b.Metrics().Snapshot(0); st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
}

func TestBatcherCloseDrainsAdmittedRefusesNew(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	blocked := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		started <- struct{}{}
		<-release
		return echoInfer(rows)
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 1, QueueDepth: 8}, blocked, nil)

	const admitted = 3
	results := make(chan error, admitted)
	for i := 0; i < admitted; i++ {
		go func() {
			_, err := b.Submit(context.Background(), []float32{1})
			results <- err
		}()
	}
	<-started // one in flight, the rest queued
	waitDepth(t, b, admitted-1)

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	// Close must refuse new work as soon as it flips the flag (it does so
	// before blocking on the drain)...
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.RLock()
		flagged := b.closed
		b.mu.RUnlock()
		if flagged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never flipped the closed flag")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := b.Submit(context.Background(), []float32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit during drain returned %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still blocked in the backend")
	default:
	}
	// ...while every admitted request completes.
	go func() {
		for {
			select {
			case <-started:
			case <-closed:
				return
			}
		}
	}()
	close(release)
	for i := 0; i < admitted; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed during drain: %v", err)
		}
	}
	<-closed
	b.Close() // idempotent
}

func ExampleBatcher() {
	b := NewBatcher(BatcherConfig{MaxBatch: 4}, echoInfer, nil)
	defer b.Close()
	pred, _ := b.Submit(context.Background(), []float32{3})
	fmt.Println(pred)
	// Output: 3
}
