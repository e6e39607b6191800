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

func TestBatcherPairsRequestsToResponses(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond}, echoInfer, nil)
	defer b.Close()
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	preds := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], errs[i] = b.Submit(context.Background(), []float32{float32(i)})
		}(i)
	}
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
	if st.Batches >= n {
		t.Fatalf("%d batches for %d concurrent requests — no coalescing happened", st.Batches, n)
	}
}

func TestBatcherFlushesLoneRequestAfterMaxDelay(t *testing.T) {
	b := NewBatcher(BatcherConfig{MaxBatch: 1000, MaxDelay: 10 * time.Millisecond}, echoInfer, nil)
	defer b.Close()
	start := time.Now()
	pred, err := b.Submit(context.Background(), []float32{42})
	if err != nil || pred != 42 {
		t.Fatalf("got (%d, %v)", pred, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("lone request waited %v — MaxDelay flush did not fire", waited)
	}
	if st := b.Metrics().Snapshot(0); st.BatchSizes["1"] != 1 {
		t.Fatalf("batch-size histogram %v, want one batch of 1", st.BatchSizes)
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
	b := NewBatcher(BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, QueueDepth: depth}, blocked, nil)

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
	var mu sync.Mutex
	rowsSeen := 0
	counting := func(rows [][]float32) ([]int, crossbar.Stats, error) {
		mu.Lock()
		rowsSeen += len(rows)
		mu.Unlock()
		return echoInfer(rows)
	}
	b := NewBatcher(BatcherConfig{MaxBatch: 2, MaxDelay: 50 * time.Millisecond}, counting, nil)
	defer b.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctxA, []float32{1})
		errA <- err
	}()
	time.Sleep(2 * time.Millisecond) // let A reach the dispatcher
	cancelA()
	pred, err := b.Submit(context.Background(), []float32{7})
	if err != nil || pred != 7 {
		t.Fatalf("live request got (%d, %v)", pred, err)
	}
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}
	mu.Lock()
	seen := rowsSeen
	mu.Unlock()
	if seen != 1 {
		t.Fatalf("backend evaluated %d rows, want 1 — canceled work was not shed", seen)
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
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond}, failing, nil)
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
	b := NewBatcher(BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, QueueDepth: 8}, blocked, nil)

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
	b := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond}, echoInfer, nil)
	defer b.Close()
	pred, _ := b.Submit(context.Background(), []float32{3})
	fmt.Println(pred)
	// Output: 3
}
