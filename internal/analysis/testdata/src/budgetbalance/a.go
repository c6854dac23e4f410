package budgetbalance

import "errors"

type pool struct{}

func (p *pool) Acquire() (int, error) { return 1, nil }
func (p *pool) Release(int)           {}

type kv struct{}

func (k *kv) ReserveKV(n int64) bool { return true }
func (k *kv) ReleaseKV(n int64)      {}

type env struct {
	p *pool
	k *kv
}

func (e *env) badAcquire(x int) error {
	rep, err := e.p.Acquire()
	if err != nil {
		return err // the acquire's own failure guard: exempt
	}
	if x > 0 {
		return errors.New("boom") // want "e.p.Acquire acquired at .* is not released or rolled back"
	}
	e.p.Release(rep)
	return nil
}

func (e *env) goodAcquire(x int) error {
	rep, err := e.p.Acquire()
	if err != nil {
		return err
	}
	if x > 0 {
		e.p.Release(rep)
		return errors.New("boom")
	}
	e.p.Release(rep)
	return nil
}

func (e *env) goodDefer(x int) error {
	rep, err := e.p.Acquire()
	if err != nil {
		return err
	}
	defer e.p.Release(rep)
	if x > 0 {
		return errors.New("boom")
	}
	return nil
}

func (e *env) badReserve(n int64) error {
	if !e.k.ReserveKV(n) {
		return errors.New("no budget")
	}
	if n > 10 {
		return errors.New("too big") // want "e.k.ReserveKV acquired at .* is not released or rolled back"
	}
	e.k.ReleaseKV(n)
	return nil
}

func (e *env) goodHandoff(x int) error {
	rep, err := e.p.Acquire()
	if err != nil {
		return err
	}
	go func() {
		defer e.p.Release(rep)
	}()
	if x > 0 {
		return errors.New("fail after handoff")
	}
	return nil
}

func (e *env) okAnnotated(x int) error {
	if !e.k.ReserveKV(int64(x)) {
		return errors.New("no budget")
	}
	if x > 5 {
		return errors.New("caller rolls back") //sti:budgetok caller releases via the returned cleanup hook
	}
	e.k.ReleaseKV(int64(x))
	return nil
}
