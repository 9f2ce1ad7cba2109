//! Deterministic failpoints for crash and chaos testing.
//!
//! A **failpoint** is a named hook compiled into a risky code path — a WAL
//! append, the snapshot rename, a server worker's body. In production it is
//! *disarmed* and costs exactly one relaxed atomic load ([`evaluate`]'s fast
//! path); armed, it counts how often the site is hit and, when its
//! [`Trigger`] matches, injects its [`Action`]: a typed error, a delay, a
//! partial write, or a panic.
//!
//! Everything is deterministic and seeded so a chaos run is replayable:
//! `nth-hit` and `every-k` triggers are pure functions of the site's hit
//! counter, and the probabilistic trigger hashes `(seed, hit)` with
//! [`mix64`] — the same seed always fires the same hits, on any machine.
//!
//! # Configuration
//!
//! Failpoints are configured programmatically ([`configure`]), from a spec
//! string ([`configure_str`] — what `ssr serve --failpoint` passes
//! through), or from the [`ENV_FAILPOINTS`] environment variable
//! ([`init_from_env`], which binaries call once at startup):
//!
//! ```text
//! SSR_FAILPOINTS="wal.append=nth-3:partial-5;serve.worker=every-2:panic"
//! ```
//!
//! The grammar per entry is `name=trigger:action` with entries separated by
//! `;` or `,`:
//!
//! | trigger            | fires                                              |
//! |--------------------|----------------------------------------------------|
//! | `always`           | on every hit                                       |
//! | `nth-N`            | on exactly the N-th hit (1-based), once            |
//! | `every-K`          | on every K-th hit                                  |
//! | `prob-P` / `prob-P-SEED` | per hit with probability P‰ (seeded)         |
//!
//! | action        | effect at the site                                      |
//! |---------------|---------------------------------------------------------|
//! | `error`       | the operation fails with an injected error              |
//! | `delay-MS`    | the thread sleeps MS milliseconds, then proceeds        |
//! | `partial-N`   | only the first N bytes of the write land, then it fails |
//! | `panic`       | the thread panics (worker-isolation testing)            |
//!
//! Each injection increments the global `ssr_faults_injected_total` counter
//! (labelled by site) in [`ssr_obs::global`], so a chaos harness can check
//! the observed fault count against its schedule.
//!
//! The registry is process-global (like [`ssr_obs::global`]): tests that arm
//! failpoints must serialize against each other and [`clear`] when done —
//! [`FailpointGuard`] packages both obligations as one RAII value.
//!
//! Beyond per-site failpoints, the crate also hosts a **node-level kill
//! switch** ([`kill_node`] / [`revive_node`]) for multi-node harnesses: a
//! server started with a node name consults [`node_killed`] and, while the
//! switch is thrown, drops every connection without answering — the closest
//! in-process model of a crashed process that keeps the listener's port
//! (so a "restart" is instant and deterministic, with no rebind race).

#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Environment variable [`init_from_env`] reads failpoint specs from.
pub const ENV_FAILPOINTS: &str = "SSR_FAILPOINTS";

/// When a configured failpoint fires, as a function of the site's hit
/// counter (1-based: the first [`evaluate`] after configuration is hit 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on exactly the `n`-th hit, once.
    NthHit(u64),
    /// Fire on every `k`-th hit (hits `k`, `2k`, `3k`, …).
    EveryK(u64),
    /// Fire per hit with probability `permille`/1000, decided by hashing
    /// `(seed, hit)` — deterministic for a fixed seed.
    Probability {
        /// Firing probability in thousandths (0..=1000).
        permille: u32,
        /// Seed of the per-hit hash.
        seed: u64,
    },
}

/// What a firing failpoint does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// The site fails with an injected error ([`Fault::Error`]).
    ReturnError,
    /// The calling thread sleeps this many milliseconds, then proceeds.
    Delay(u64),
    /// The site performs only the first `n` bytes of its write, then fails
    /// ([`Fault::PartialWrite`]) — a modelled torn write.
    PartialWrite(usize),
    /// The calling thread panics (inside [`evaluate`]).
    Panic,
}

/// One failpoint's configuration: when to fire and what to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FailpointConfig {
    /// When the failpoint fires.
    pub trigger: Trigger,
    /// What it does when it fires.
    pub action: Action,
}

/// The outcome a call site must handle after [`evaluate`] fires. Delays and
/// panics are executed inside [`evaluate`] itself, so sites only deal with
/// the two outcomes that change their control flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Fail the operation with an injected error (see [`injected_io_error`]).
    Error,
    /// Perform only the first `n` bytes of the write, then fail.
    PartialWrite(usize),
}

/// Status of one configured failpoint, for diagnostics and chaos assertions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FailpointStatus {
    /// The failpoint's site name.
    pub name: String,
    /// Its configuration.
    pub config: FailpointConfig,
    /// Times the site was hit since configuration.
    pub hits: u64,
    /// Times the failpoint fired.
    pub fired: u64,
}

struct Failpoint {
    config: FailpointConfig,
    hits: u64,
    fired: u64,
}

/// Armed flag: the *only* state the disarmed fast path reads. It is true iff
/// at least one failpoint is configured.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Process-total injections (all sites), mirrored per-site into ssr-obs.
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);

fn registry() -> MutexGuard<'static, HashMap<String, Failpoint>> {
    static POINTS: OnceLock<Mutex<HashMap<String, Failpoint>>> = OnceLock::new();
    POINTS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("failpoint registry poisoned")
}

/// SplitMix64 finalizer: a high-quality 64-bit mix, used for the seeded
/// probability trigger and exported for seeded jitter elsewhere in the
/// workspace (the wire client's backoff). Pure, so every consumer is
/// deterministic under a fixed seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether any failpoint is configured. One relaxed load — the exact cost a
/// disarmed [`evaluate`] pays.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The failpoint hook. Call sites invoke this with their site name on every
/// pass through the risky path:
///
/// * disarmed (no failpoint configured anywhere): returns `None` after a
///   single relaxed atomic load — no lock, no allocation, no branch on the
///   site name;
/// * armed but this site unconfigured: counts nothing, returns `None`;
/// * armed and firing: a [`Action::Delay`] sleeps here and returns `None`, a
///   [`Action::Panic`] panics here, and the other actions return the
///   [`Fault`] the site must enact.
pub fn evaluate(name: &str) -> Option<Fault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    evaluate_armed(name)
}

#[cold]
fn evaluate_armed(name: &str) -> Option<Fault> {
    let action = {
        let mut points = registry();
        let point = points.get_mut(name)?;
        point.hits += 1;
        let fires = match point.config.trigger {
            Trigger::Always => true,
            Trigger::NthHit(n) => point.hits == n,
            Trigger::EveryK(k) => k > 0 && point.hits % k == 0,
            Trigger::Probability { permille, seed } => {
                mix64(seed ^ mix64(point.hits)) % 1000 < u64::from(permille)
            }
        };
        if !fires {
            return None;
        }
        point.fired += 1;
        point.config.action
    };
    INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
    ssr_obs::global()
        .counter_with(
            "ssr_faults_injected_total",
            "Faults injected by armed failpoints, by site.",
            Some(("site", name.to_string())),
        )
        .add(1);
    match action {
        Action::ReturnError => Some(Fault::Error),
        Action::PartialWrite(n) => Some(Fault::PartialWrite(n)),
        Action::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        Action::Panic => panic!("failpoint '{name}' fired: injected panic"),
    }
}

/// The `std::io::Error` an injected [`Fault::Error`] / [`Fault::PartialWrite`]
/// surfaces as. The message names the site, so chaos assertions (and humans
/// reading logs) can tell an injected failure from a real one.
pub fn injected_io_error(name: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint '{name}' injected failure"))
}

/// Configures (or reconfigures) one failpoint, resetting its hit counters
/// and arming the registry.
pub fn configure(name: &str, config: FailpointConfig) {
    let mut points = registry();
    points.insert(
        name.to_string(),
        Failpoint {
            config,
            hits: 0,
            fired: 0,
        },
    );
    drop(points);
    ARMED.store(true, Ordering::Relaxed);
}

/// Removes every failpoint and disarms the registry; [`evaluate`] is back to
/// its one-load fast path. The process-total injection tally is kept.
pub fn clear() {
    registry().clear();
    ARMED.store(false, Ordering::Relaxed);
}

/// Total faults injected by this process across all sites (monotonic; not
/// reset by [`clear`]).
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Hit/fired counters of every configured failpoint, sorted by name.
pub fn snapshot() -> Vec<FailpointStatus> {
    let points = registry();
    let mut out: Vec<FailpointStatus> = points
        .iter()
        .map(|(name, p)| FailpointStatus {
            name: name.clone(),
            config: p.config,
            hits: p.hits,
            fired: p.fired,
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Parses and applies a spec string (`name=trigger:action`, entries split on
/// `;` or `,` — see the module docs for the grammar). Returns the number of
/// failpoints configured. Empty entries are skipped, so a trailing separator
/// is harmless; any malformed entry is an `Err` naming the offending text,
/// and entries before it stay applied.
pub fn configure_str(spec: &str) -> Result<usize, String> {
    let mut configured = 0;
    for entry in spec.split([';', ',']) {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("failpoint entry '{entry}' is missing '='"))?;
        let (trigger, action) = rest.split_once(':').ok_or_else(|| {
            format!("failpoint entry '{entry}' is missing ':' between trigger and action")
        })?;
        let config = FailpointConfig {
            trigger: parse_trigger(trigger.trim())?,
            action: parse_action(action.trim())?,
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("failpoint entry '{entry}' has an empty name"));
        }
        configure(name, config);
        configured += 1;
    }
    Ok(configured)
}

/// Applies [`ENV_FAILPOINTS`] if set. Returns the number of failpoints
/// configured (0 when the variable is absent or empty). Binaries call this
/// once at startup; with the variable unset it touches nothing and the
/// registry stays disarmed.
pub fn init_from_env() -> Result<usize, String> {
    match std::env::var(ENV_FAILPOINTS) {
        Ok(spec) if !spec.trim().is_empty() => configure_str(&spec),
        _ => Ok(0),
    }
}

/// RAII ownership of the process-global failpoint registry.
///
/// The registry is shared by every test in a binary, so armed tests carry
/// two manual obligations: serialize against each other, and [`clear`] on
/// every exit path. `FailpointGuard` folds both into one value — creating
/// a guard takes a process-wide arming lock and clears any leftover state;
/// dropping it disarms the registry and resets every per-site hit counter
/// (by removing the sites), even when the test panics mid-way.
///
/// ```
/// let guard = ssr_fault::FailpointGuard::arm("wal.append=nth-1:error").unwrap();
/// assert!(ssr_fault::armed());
/// drop(guard);
/// assert!(!ssr_fault::armed());
/// ```
pub struct FailpointGuard {
    _serial: MutexGuard<'static, ()>,
}

/// The process-wide lock [`FailpointGuard`] serializes on. Poisoning is
/// recovered: a panicking armed test must not wedge every later one.
fn arming_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl FailpointGuard {
    /// Takes the arming lock, clears leftover registry state and applies
    /// `spec` (the [`configure_str`] grammar). On a malformed spec the
    /// registry is left cleared and the error is returned.
    pub fn arm(spec: &str) -> Result<FailpointGuard, String> {
        let guard = FailpointGuard::disarmed();
        match configure_str(spec) {
            Ok(_) => Ok(guard),
            Err(err) => {
                clear();
                Err(err)
            }
        }
    }

    /// Takes the arming lock and clears the registry without configuring
    /// anything — for tests that must observe *disarmed* behavior without
    /// racing armed ones, or that arm later via [`FailpointGuard::rearm`].
    pub fn disarmed() -> FailpointGuard {
        let serial = arming_lock();
        clear();
        FailpointGuard { _serial: serial }
    }

    /// Replaces the armed configuration: clears every site (resetting hit
    /// counters), then applies `spec`. The serialization lock is already
    /// held, so mid-test reconfiguration stays race-free.
    pub fn rearm(&self, spec: &str) -> Result<usize, String> {
        clear();
        configure_str(spec)
    }

    /// Disarms the registry without releasing the serialization lock — the
    /// mid-test counterpart of dropping the guard.
    pub fn disarm(&self) {
        clear();
    }
}

impl Drop for FailpointGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Set of node names currently "killed" by [`kill_node`].
fn killed_registry() -> MutexGuard<'static, HashSet<String>> {
    static KILLED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    KILLED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("killed-node registry poisoned")
}

/// Fast path for [`node_killed`]: true iff at least one node is down.
static ANY_NODE_DOWN: AtomicBool = AtomicBool::new(false);

/// Throws the kill switch for `name`: a server bound with this node name
/// drops every new connection and abandons every in-flight one without a
/// response, modelling a crashed process whose port stays reserved. The
/// cluster chaos harness uses this to kill and restart nodes at exact,
/// seeded schedule points.
pub fn kill_node(name: &str) {
    let mut killed = killed_registry();
    killed.insert(name.to_string());
    ANY_NODE_DOWN.store(true, Ordering::Relaxed);
}

/// Clears the kill switch for `name` — the in-process "restart". The server
/// resumes accepting on its existing listener immediately.
pub fn revive_node(name: &str) {
    let mut killed = killed_registry();
    killed.remove(name);
    ANY_NODE_DOWN.store(!killed.is_empty(), Ordering::Relaxed);
}

/// Whether `name`'s kill switch is thrown. With no node killed anywhere
/// this is one relaxed atomic load, so production servers (which never call
/// [`kill_node`]) pay nothing per connection.
pub fn node_killed(name: &str) -> bool {
    if !ANY_NODE_DOWN.load(Ordering::Relaxed) {
        return false;
    }
    killed_registry().contains(name)
}

fn parse_trigger(text: &str) -> Result<Trigger, String> {
    if text == "always" {
        return Ok(Trigger::Always);
    }
    if let Some(n) = text.strip_prefix("nth-") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad nth-hit count in trigger '{text}'"))?;
        if n == 0 {
            return Err(format!("trigger '{text}': hits are 1-based"));
        }
        return Ok(Trigger::NthHit(n));
    }
    if let Some(k) = text.strip_prefix("every-") {
        let k: u64 = k
            .parse()
            .map_err(|_| format!("bad period in trigger '{text}'"))?;
        if k == 0 {
            return Err(format!("trigger '{text}': the period must be positive"));
        }
        return Ok(Trigger::EveryK(k));
    }
    if let Some(rest) = text.strip_prefix("prob-") {
        let (permille, seed) = match rest.split_once('-') {
            Some((p, s)) => (
                p.parse()
                    .map_err(|_| format!("bad permille in trigger '{text}'"))?,
                s.parse()
                    .map_err(|_| format!("bad seed in trigger '{text}'"))?,
            ),
            None => (
                rest.parse()
                    .map_err(|_| format!("bad permille in trigger '{text}'"))?,
                0,
            ),
        };
        if permille > 1000 {
            return Err(format!("trigger '{text}': permille exceeds 1000"));
        }
        return Ok(Trigger::Probability { permille, seed });
    }
    Err(format!("unknown trigger '{text}'"))
}

fn parse_action(text: &str) -> Result<Action, String> {
    match text {
        "error" => return Ok(Action::ReturnError),
        "panic" => return Ok(Action::Panic),
        _ => {}
    }
    if let Some(ms) = text.strip_prefix("delay-") {
        return ms
            .parse()
            .map(Action::Delay)
            .map_err(|_| format!("bad delay in action '{text}'"));
    }
    if let Some(n) = text.strip_prefix("partial-") {
        return n
            .parse()
            .map(Action::PartialWrite)
            .map_err(|_| format!("bad byte count in action '{text}'"));
    }
    Err(format!("unknown action '{text}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_evaluate_is_a_noop() {
        let _guard = FailpointGuard::disarmed();
        assert!(!armed());
        assert_eq!(evaluate("anything"), None);
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let guard = FailpointGuard::disarmed();
        configure(
            "t.nth",
            FailpointConfig {
                trigger: Trigger::NthHit(3),
                action: Action::ReturnError,
            },
        );
        let fired: Vec<bool> = (0..6).map(|_| evaluate("t.nth").is_some()).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        let status = &snapshot()[0];
        assert_eq!((status.hits, status.fired), (6, 1));
        drop(guard);
    }

    #[test]
    fn every_k_fires_periodically_and_unconfigured_sites_pass() {
        let _guard = FailpointGuard::disarmed();
        configure(
            "t.every",
            FailpointConfig {
                trigger: Trigger::EveryK(2),
                action: Action::PartialWrite(7),
            },
        );
        assert_eq!(evaluate("t.other"), None, "unconfigured site");
        let fired: Vec<Option<Fault>> = (0..4).map(|_| evaluate("t.every")).collect();
        assert_eq!(
            fired,
            [
                None,
                Some(Fault::PartialWrite(7)),
                None,
                Some(Fault::PartialWrite(7))
            ]
        );
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let _guard = FailpointGuard::disarmed();
        let run = |seed: u64| -> Vec<bool> {
            configure(
                "t.prob",
                FailpointConfig {
                    trigger: Trigger::Probability {
                        permille: 500,
                        seed,
                    },
                    action: Action::ReturnError,
                },
            );
            (0..64).map(|_| evaluate("t.prob").is_some()).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let hits = a.iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&hits), "500‰ fired {hits}/64 times");
    }

    #[test]
    fn spec_strings_parse_and_misparse() {
        let guard =
            FailpointGuard::arm("a.b=nth-2:error; c.d=every-3:delay-5,e.f=prob-250-9:partial-10;")
                .unwrap();
        let status = snapshot();
        assert_eq!(status.len(), 3);
        assert_eq!(
            status[0].config,
            FailpointConfig {
                trigger: Trigger::NthHit(2),
                action: Action::ReturnError
            }
        );
        assert_eq!(
            status[2].config,
            FailpointConfig {
                trigger: Trigger::Probability {
                    permille: 250,
                    seed: 9
                },
                action: Action::PartialWrite(10)
            }
        );
        for bad in [
            "noequals",
            "a=nocolon",
            "a=nth-0:error",
            "a=nth-2:explode",
            "a=prob-2000:error",
            "=always:error",
        ] {
            assert!(guard.rearm(bad).is_err(), "spec '{bad}' should fail");
        }
    }

    #[test]
    fn injected_errors_name_the_site() {
        let err = injected_io_error("wal.append");
        assert!(err.to_string().contains("failpoint 'wal.append'"));
    }

    #[test]
    #[should_panic(expected = "failpoint 't.panic' fired: injected panic")]
    fn panic_action_panics_inside_evaluate() {
        // The panic poisons the arming lock; later guards recover it with
        // `into_inner` and the dropped guard still disarms the registry.
        let _guard = FailpointGuard::disarmed();
        configure(
            "t.panic",
            FailpointConfig {
                trigger: Trigger::Always,
                action: Action::Panic,
            },
        );
        let _ = evaluate("t.panic");
    }

    #[test]
    fn guard_drop_disarms_and_resets_counters() {
        {
            let _guard = FailpointGuard::arm("t.guarded=always:error").unwrap();
            assert!(armed());
            assert_eq!(evaluate("t.guarded"), Some(Fault::Error));
            assert_eq!(snapshot()[0].hits, 1);
        }
        // Out of scope: disarmed, every site (and its counters) gone.
        let _check = FailpointGuard::disarmed();
        assert!(!armed());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn guard_rearm_replaces_the_schedule_atomically() {
        let guard = FailpointGuard::arm("t.one=always:error").unwrap();
        assert_eq!(evaluate("t.one"), Some(Fault::Error));
        guard.rearm("t.two=always:partial-3").unwrap();
        assert_eq!(evaluate("t.one"), None, "old site is gone");
        assert_eq!(evaluate("t.two"), Some(Fault::PartialWrite(3)));
        assert_eq!(snapshot().len(), 1);
        guard.disarm();
        assert!(!armed());
    }

    #[test]
    fn a_malformed_guard_spec_leaves_the_registry_disarmed() {
        assert!(FailpointGuard::arm("broken-spec").is_err());
        let _check = FailpointGuard::disarmed();
        assert!(!armed());
    }

    #[test]
    fn node_kill_switch_is_cheap_scoped_and_reversible() {
        // The kill set is process-global: these names are this test's own,
        // and it revives only them.
        let (a, b) = ("fault-test-kill-switch-a", "fault-test-kill-switch-b");
        assert!(!node_killed(a), "nothing killed yet");
        kill_node(a);
        assert!(node_killed(a));
        assert!(!node_killed(b), "the switch is per node");
        kill_node(b);
        revive_node(a);
        assert!(!node_killed(a));
        assert!(node_killed(b));
        revive_node(b);
        assert!(!node_killed(b));
    }
}
