//! Exhaustive interleaving explorer for the unit tests' worlds.
//!
//! A world is a set of actors over shared state, with no threads: each
//! step is one transition of one actor, one critical section or one
//! socket operation of the threaded shell it models. [`explore`]
//! replays every ordering of a world's first `depth` steps from a fresh
//! world, depth first, in the manner of loom and of stateless model
//! checking; past the bound a schedule runs its first enabled actor
//! until nothing is enabled: the drain. The service's tests drive
//! `ServiceCore` through it, and the server's tests drive the client's
//! and the server's protocol rules against each other.

/// A world the explorer can drive.
pub(crate) trait World {
    /// What the drained schedules tally.
    type Seen: Default;

    /// The set of ready actors, one bit per id.
    fn enabled(&self) -> u32;

    /// Runs one step of `actor`, which is enabled.
    fn step(&mut self, actor: usize);

    /// What an actor's next step touches, as bits: two steps that share
    /// none commute, and neither enables nor disables the other.
    fn footprint(&self, actor: usize) -> u32;

    /// The invariants after every step.
    fn check(&mut self) -> Result<(), String>;

    /// The invariants once nothing is enabled; tallies the schedule.
    fn drained(&self, seen: &mut Self::Seen) -> Result<(), String>;

    /// How a schedule names `actor`.
    fn name(&self, actor: usize) -> String;
}

/// Replays one schedule: the choices in `path` for its first steps,
/// new first choices past them up to `depth`, the first enabled actor
/// after it. Within the bound it skips the orderings that only swap
/// two independent steps of one already run (sleep sets, Godefroid
/// 1996: every reachable state is still visited); a schedule cut short
/// for that reason is not counted.
fn run<W: World>(
    mut world: W,
    depth: usize,
    path: &mut Vec<(usize, usize)>,
    seen: &mut W::Seen,
) -> Result<(), String> {
    let mut trace = Vec::new();
    let name = |world: &W, trace: &[usize]| {
        let names: Vec<String> = trace.iter().map(|&a| world.name(a)).collect();
        names.join(" ")
    };
    // Actors whose next step a sibling schedule already took, and which
    // only independent steps have followed since.
    let mut asleep = 0u32;
    loop {
        let enabled = world.enabled();
        if enabled == 0 {
            return world
                .drained(seen)
                .map_err(|e| format!("{e}; schedule: {}", name(&world, &trace)));
        }
        let step = trace.len();
        assert!(
            step < 1000,
            "no drain after {step} steps: {}",
            name(&world, &trace)
        );
        let actor = if step < depth {
            let awake: Vec<usize> = (0..32)
                .filter(|a| (enabled & !asleep) >> a & 1 == 1)
                .collect();
            if awake.is_empty() {
                // Every ordering from here reorders one explored.
                return Ok(());
            }
            let pick = match path.get(step) {
                Some(&(taken, of)) => {
                    assert_eq!(of, awake.len(), "a replay diverged");
                    taken
                }
                None => {
                    path.push((0, awake.len()));
                    0
                }
            };
            let touched = world.footprint(awake[pick]);
            for &a in &awake[..pick] {
                asleep |= 1 << a;
            }
            for a in 0..32 {
                if asleep >> a & 1 == 1 && world.footprint(a) & touched != 0 {
                    asleep &= !(1 << a);
                }
            }
            awake[pick]
        } else {
            enabled.trailing_zeros() as usize
        };
        trace.push(actor);
        world.step(actor);
        world
            .check()
            .map_err(|e| format!("{e}; schedule: {}", name(&world, &trace)))?;
    }
}

/// Runs every schedule of the worlds `fresh` makes, each ordering of
/// their first `depth` steps, depth first; returns the tally of the
/// drained schedules, or the first violation and its schedule.
pub(crate) fn explore<W: World>(
    depth: usize,
    mut fresh: impl FnMut() -> W,
) -> Result<W::Seen, String> {
    let mut path = Vec::new();
    let mut seen = W::Seen::default();
    loop {
        run(fresh(), depth, &mut path, &mut seen)?;
        // The next sibling of the deepest choice that has one.
        loop {
            match path.pop() {
                None => return Ok(seen),
                Some((taken, of)) if taken + 1 < of => {
                    path.push((taken + 1, of));
                    break;
                }
                Some(_) => {}
            }
        }
    }
}
