package sim

import "testing"

// The simulator's own speed bounds every experiment's wall-clock time;
// these benchmarks track events/second for completion, resource and
// queue handoffs (kernel callbacks and process switches are rows of
// internal/bench's BenchmarkOps).

func BenchmarkCompletionHandoff(b *testing.B) {
	k := NewKernel()
	ping := make([]*Completion, b.N)
	for i := range ping {
		ping[i] = NewCompletion(k, "ping")
	}
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			wait(p, ping[i])
		}
	})
	k.Spawn("completer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1 * Ns)
			ping[i].Complete(nil)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkResourceContention(b *testing.B) {
	k := NewKernel()
	r := NewResource(k, "cpu", 2)
	const workers = 8
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		k.Spawn("worker", func(p *Proc) {
			for i := 0; i < per; i++ {
				use(r, p, 1*Ns)
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQueueThroughput(b *testing.B) {
	k := NewKernel()
	q := NewQueue[int](k, "q")
	var consumer *Cont
	var consume func()
	consume = func() {
		for _, ok := q.TryPop(); ok; _, ok = q.TryPop() {
		}
		q.WaitFn(consumer, consume)
	}
	consumer = k.SpawnService("consumer", -1, "", Func(consume), 0)
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1 * Ns)
			q.Push(i)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
