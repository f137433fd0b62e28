//! Shared-object arbitration policies.
//!
//! OSSS shared objects resolve concurrent access through an exchangeable
//! scheduler. The library ships the three policies the OSSS class library
//! documents: first-come-first-served, round-robin and static priority.

use osss_sim::ProcId;

/// One pending access request, as seen by an arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client (process) that issued the call.
    pub client: ProcId,
    /// Priority supplied through [`crate::CallOptions`]; larger wins for
    /// priority-based arbiters.
    pub priority: u32,
    /// Monotonic arrival sequence number (smaller arrived earlier).
    pub seq: u64,
}

/// An arbitration policy: given the pending requests, picks which one is
/// granted next.
///
/// Implementations must return an index into `pending`, or `None` if
/// `pending` is empty. They may keep internal state (e.g. round-robin
/// position).
pub trait Arbiter: Send {
    /// Chooses the next request to grant.
    fn pick(&mut self, pending: &[Request]) -> Option<usize>;
}

impl Arbiter for Box<dyn Arbiter> {
    fn pick(&mut self, pending: &[Request]) -> Option<usize> {
        self.as_mut().pick(pending)
    }
}

/// First-come-first-served: grants requests strictly in arrival order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Fcfs {
    /// Creates the policy.
    pub fn new() -> Self {
        Fcfs
    }
}

impl Arbiter for Fcfs {
    fn pick(&mut self, pending: &[Request]) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.seq)
            .map(|(i, _)| i)
    }
}

/// Round-robin over client identities: after serving client *c*, the next
/// grant prefers the pending client with the smallest identity greater than
/// *c* (wrapping).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    last: Option<ProcId>,
}

impl RoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Arbiter for RoundRobin {
    fn pick(&mut self, pending: &[Request]) -> Option<usize> {
        if pending.is_empty() {
            return None;
        }
        let pivot = self.last;
        // Order: clients after the pivot first (wrapping), ties by arrival.
        let chosen = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| {
                let after_pivot = match pivot {
                    Some(p) => r.client <= p,
                    None => false,
                };
                (after_pivot, r.client, r.seq)
            })
            .map(|(i, _)| i);
        if let Some(i) = chosen {
            self.last = Some(pending[i].client);
        }
        chosen
    }
}

/// Static priority: the highest [`Request::priority`] wins; ties broken by
/// arrival order.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPriority;

impl StaticPriority {
    /// Creates the policy.
    pub fn new() -> Self {
        StaticPriority
    }
}

impl Arbiter for StaticPriority {
    fn pick(&mut self, pending: &[Request]) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (std::cmp::Reverse(r.priority), r.seq))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(client: usize, priority: u32, seq: u64) -> Request {
        Request {
            client: fake_pid(client),
            priority,
            seq,
        }
    }

    fn fake_pid(n: usize) -> ProcId {
        ProcId::from_raw(n)
    }

    #[test]
    fn fcfs_is_arrival_order() {
        let mut a = Fcfs::new();
        let pending = [req(2, 0, 5), req(0, 9, 3), req(1, 0, 7)];
        assert_eq!(a.pick(&pending), Some(1)); // seq 3 first, priority ignored
        assert_eq!(a.pick(&[]), None);
    }

    #[test]
    fn static_priority_prefers_high_priority() {
        let mut a = StaticPriority::new();
        let pending = [req(0, 1, 1), req(1, 5, 2), req(2, 5, 3)];
        // Priority 5 wins; among equals, earlier arrival.
        assert_eq!(a.pick(&pending), Some(1));
    }

    #[test]
    fn round_robin_rotates() {
        let mut a = RoundRobin::new();
        let p0 = fake_pid(0);
        let p1 = fake_pid(1);
        let p2 = fake_pid(2);
        let mk = |c: ProcId, seq| Request {
            client: c,
            priority: 0,
            seq,
        };
        // First grant: lowest client id.
        let pending = [mk(p1, 1), mk(p0, 2), mk(p2, 3)];
        assert_eq!(a.pick(&pending), Some(1)); // p0
                                               // p0 just served: now p1 preferred over p0 even if p0 re-requests.
        let pending = [mk(p0, 4), mk(p1, 1), mk(p2, 3)];
        assert_eq!(a.pick(&pending), Some(1)); // p1
        let pending = [mk(p0, 4), mk(p2, 3)];
        assert_eq!(a.pick(&pending), Some(1)); // p2
                                               // Wrap around.
        let pending = [mk(p0, 4)];
        assert_eq!(a.pick(&pending), Some(0));
    }
}
