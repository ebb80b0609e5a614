package peer

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// link is the one record of an outbound address, configured (kept) or
// dialed on demand, on one rule: a refused dial, a failed handshake or a
// session younger than the liveness window climbs one transport.Backoff
// step (next = now + Delay(fails), then fails++); a session that outlives
// the window clears it. A link has a goroutine (runLink) only while its
// dial is in flight or its session is up.
type link struct {
	kept  bool // configured: redialed by the links step, never forgotten
	fails int
	next  time.Time
	up    *attempt  // the dial in flight or its session; nil while down
	since time.Time // when up's session registered; zero before
	// dialed: the link has had a session, so the next one is a reconnect.
	dialed bool
	// redial: RedialNeverUp found this never-up link's dial in flight;
	// if that dial fails, the link dials once more at once.
	redial bool
}

// attempt is one dial as its callers see it: done closes once the session
// registers (err nil) or the dial or handshake fails (err set first).
type attempt struct {
	done chan struct{}
	err  error
	// waiters is how many Dial calls wait on done, each given a unit of
	// work (internal/quiet) when it closes.
	waiters int
}

// linkRound is the beat's links step: a session that has outlived the
// window clears its link's step; an on-demand record down for four
// liveness windows past its step is forgotten — its address came from a
// stranger; every kept link that is down and due is dialed; and an accept
// loop waiting out a failed Accept (Serve) is let go.
func (m *Manager) linkRound(now time.Time) {
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	for addr, l := range m.links {
		switch {
		case !l.since.IsZero() && now.Sub(l.since) >= m.cfg.LivenessWindow:
			l.fails, l.next = 0, time.Time{}
		case l.up == nil && !l.kept && now.Sub(l.next) > 4*m.cfg.LivenessWindow:
			delete(m.links, addr)
		case l.up == nil && l.kept && !now.Before(l.next):
			m.startLocked(addr, l)
		}
	}
	if m.acceptRetry != nil {
		close(m.acceptRetry)
		m.acceptRetry = nil
	}
}

// RedialNeverUp dials at once every kept link that is down and has never
// had a session: an address configured before its node listened, whose
// refused boot dial would otherwise wait for the beat while a loopback
// transfer is over long before it. It runs on the events that say the
// neighbourhood just grew — a session registering here, and a hello that
// adds an edge, which the daemon reports — never on a timer. A never-up
// link whose dial is still in flight is marked instead, and dials once
// more at once if that dial fails: the event may have come between the
// refusal and its filing. A refused dial climbs the link's step like any
// other, so an address that stays dead costs one dial per event.
func (m *Manager) RedialNeverUp() {
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	if m.life.Err() != nil {
		return
	}
	for addr, l := range m.links {
		switch {
		case !l.kept || l.dialed:
		case l.up == nil:
			m.startLocked(addr, l)
		default:
			l.redial = true
		}
	}
}

// Dial brings up a session to addr on demand — the DHT's way to a contact
// outside the peer set. It starts addr's dial or joins the one in flight,
// and returns nil once the session registers (at once if one is up), the
// dial's or handshake's error, ErrDialSuppressed while the address's
// backoff step runs, or ctx's error. ctx bounds the wait, not the dial:
// the link is the manager's, and both ends beacon on the session, so it
// lives on until one side drops it.
func (m *Manager) Dial(ctx context.Context, addr string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.linkMu.Lock()
	if m.life.Err() != nil {
		m.linkMu.Unlock()
		return errors.New("peer: manager stopped")
	}
	l := m.links[addr]
	if l == nil {
		l = &link{}
		m.links[addr] = l
	}
	if l.up == nil {
		if m.cfg.Now().Before(l.next) {
			m.linkMu.Unlock()
			m.ctrs.dialsSuppr.Add(1)
			return fmt.Errorf("%s: %w", addr, ErrDialSuppressed)
		}
		m.startLocked(addr, l)
	}
	a := l.up
	select {
	case <-a.done: // up already
		m.linkMu.Unlock()
		return a.err
	default:
	}
	a.waiters++
	m.linkMu.Unlock()
	m.work.Done()
	select {
	case <-a.done:
		return a.err
	case <-ctx.Done():
		m.linkMu.Lock()
		select {
		case <-a.done: // its closer counted this wait
		default:
			a.waiters--
			m.work.Add(1)
		}
		m.linkMu.Unlock()
		return ctx.Err()
	}
}

// startLocked brings l up on a goroutine of its own. Caller holds linkMu.
func (m *Manager) startLocked(addr string, l *link) {
	l.up = &attempt{done: make(chan struct{})}
	m.linkWG.Add(1)
	m.work.Add(1)
	go m.runLink(addr, l)
}

// runLink dials addr and runs the session until the link is down. Only a
// kept link whose session outlived the window dials again at once, as
// after any clean drop; that session clears the record, and an on-demand
// one is forgotten. A never-up link RedialNeverUp marked dials once more
// at once. Anything else climbs one step — unless the manager is
// stopping, which says nothing about the address.
func (m *Manager) runLink(addr string, l *link) {
	defer m.linkWG.Done()
	defer m.work.Done()
	for {
		conn, err := m.cfg.Transport.Dial(m.life, addr)
		if err == nil {
			m.ctrs.dials.Add(1)
			err = m.runSession(m.life, conn, l)
		}
		now := m.cfg.Now()
		m.linkMu.Lock()
		if l.since.IsZero() {
			l.up.err = err
			m.work.Add(l.up.waiters)
			close(l.up.done)
		}
		lived := !l.since.IsZero() && now.Sub(l.since) >= m.cfg.LivenessWindow
		l.up, l.since = nil, time.Time{}
		var delay time.Duration // nonzero once the link climbed a step
		switch {
		case m.life.Err() != nil:
		case lived:
			l.fails, l.next = 0, time.Time{}
			if l.kept {
				l.up = &attempt{done: make(chan struct{})}
			} else {
				delete(m.links, addr)
			}
		case l.redial && !l.dialed:
			l.redial = false
			l.up = &attempt{done: make(chan struct{})}
		default:
			delay = m.cfg.Backoff.Delay(l.fails)
			l.next = now.Add(delay)
			l.fails++
		}
		again, fails := l.up != nil, l.fails
		m.linkMu.Unlock()
		if delay > 0 {
			if err == nil {
				err = errors.New("session died young")
			}
			m.logf("peer: link to %s down (%v; %d in a row); next dial no sooner than %v", addr, err, fails, delay)
		}
		if !again {
			return
		}
		m.logf("peer: link to %s dropped; redialing", addr)
	}
}

// linkUp marks l's session registered and releases its callers.
func (m *Manager) linkUp(l *link) {
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	if l.dialed {
		m.ctrs.reconnects.Add(1)
	}
	l.dialed, l.since = true, m.cfg.Now()
	m.work.Add(l.up.waiters)
	close(l.up.done)
}
