package plancache

import (
	"context"
	"errors"
	"testing"
	"time"

	"robustqo/internal/obs"
)

func TestAdmissionTokensAndQueue(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAdmission(AdmissionConfig{Slots: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second}, 1, reg)

	rel1, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1", got)
	}

	// Second arrival queues; releasing the first token admits it.
	admitted := make(chan struct{})
	go func() {
		rel2, err := a.Admit(context.Background())
		if err != nil {
			t.Error(err)
			close(admitted)
			return
		}
		close(admitted)
		rel2()
	}()
	// Wait for the second arrival to be queued.
	for a.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Third arrival overflows the single-slot queue: shed.
	if _, err := a.Admit(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow arrival: %v, want ErrShed", err)
	}

	rel1()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued arrival was never admitted after release")
	}
	if got := reg.Counter("robustqo_admission_shed_total").Value(); got != 1 {
		t.Errorf("shed_total = %d, want 1", got)
	}
	if got := reg.Counter("robustqo_admission_admitted_total").Value(); got != 2 {
		t.Errorf("admitted_total = %d, want 2", got)
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond}, 1, nil)
	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := a.Admit(context.Background()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("starved arrival: %v, want ErrTimeout", err)
	}
}

func TestAdmissionContextCancel(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 1, MaxQueue: 4}, 1, nil)
	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := a.Admit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled arrival: %v, want context.Canceled", err)
	}
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 2}, 2, nil)
	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // double release must not mint a new token
	if got := a.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after release, want 0", got)
	}
	// Both slots (not three) are available.
	r1, _ := a.Admit(context.Background())
	r2, _ := a.Admit(context.Background())
	if got := a.InFlight(); got != 2 {
		t.Errorf("InFlight = %d, want 2", got)
	}
	r1()
	r2()
}

func TestAdmissionClose(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 2}, 2, nil)
	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- a.Close(ctx)
	}()

	// New arrivals are rejected immediately once draining starts. An
	// arrival that races ahead of the close must release its token or
	// the drain below would wait on it forever.
	for {
		rel2, err := a.Admit(context.Background())
		if errors.Is(err, ErrClosed) {
			break
		}
		if err == nil {
			rel2()
		}
		time.Sleep(time.Millisecond)
	}
	rel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestAdmissionBudgets(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 1, MemBudgetRows: 1000}, 1, nil)
	if err := a.CheckMemory(500); err != nil {
		t.Errorf("under-budget plan rejected: %v", err)
	}
	if err := a.CheckMemory(5000); !errors.Is(err, ErrMemBudget) {
		t.Errorf("over-budget plan: %v, want ErrMemBudget", err)
	}
}
