//! What the four trajectory bins (`bench_million`, `bench_cascade`,
//! `serve_demo`, `serve_steady`) share: one flag reader, one
//! `run → entry → append → validate` driver, one counting allocator, and the
//! seeded helpers (`fnv1a`, `doc_arrivals`) two bins each call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use adaparse::DocArrival;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scicorpus::{generate_arrivals, ArrivalConfig, ArrivalPattern};

use crate::trajectory::{append_entry, unix_timestamp, validate_trajectory, JsonValue};

/// The trajectory file a bin owns.
pub struct Trajectory {
    /// The bin's name, prefixed to its error line.
    pub bin: &'static str,
    /// The `benchmark` name stamped into the file — also the default
    /// `--label`, and `BENCH_<benchmark>.json` the default `--out`.
    pub benchmark: &'static str,
    /// Fields every entry must carry, checked after each append and by
    /// `--validate` (the CI step).
    pub required: &'static [&'static str],
}

/// A trajectory bin's command line: the flags all four accept, read here,
/// and the cursor a bin reads its own flags from.
pub struct Flags {
    /// `--seed` (default 42).
    pub seed: u64,
    /// `--label`, stamped into the entry.
    pub label: String,
    /// `--out`, the trajectory file.
    pub out: PathBuf,
    /// `--smoke`: the scaled-down double-run CI mode.
    pub smoke: bool,
    /// `--validate`: check the trajectory file and exit.
    pub validate: bool,
    args: std::iter::Skip<std::env::Args>,
}

impl Flags {
    fn from_env(trajectory: &Trajectory) -> Flags {
        Flags {
            seed: 42,
            label: trajectory.benchmark.to_string(),
            out: PathBuf::from(format!("BENCH_{}.json", trajectory.benchmark)),
            smoke: false,
            validate: false,
            args: std::env::args().skip(1),
        }
    }

    /// The next flag that is the bin's own to interpret; the shared flags on
    /// the way to it are consumed into `self`.
    pub fn next_own(&mut self) -> Result<Option<String>, String> {
        while let Some(flag) = self.args.next() {
            match flag.as_str() {
                "--seed" => self.seed = self.value("--seed")?,
                "--label" => self.label = self.value("--label")?,
                "--out" => self.out = self.value("--out")?,
                "--smoke" => self.smoke = true,
                "--validate" => self.validate = true,
                _ => return Ok(Some(flag)),
            }
        }
        Ok(None)
    }

    /// The value following the flag `name`, parsed.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.args.next().ok_or(format!("{name} needs a value"))?;
        raw.parse().map_err(|e| format!("{name}: {e}"))
    }

    /// The error for a flag no reader claimed.
    pub fn unknown(flag: &str) -> String {
        format!("unknown argument {flag:?}")
    }
}

/// A bin's `main`: read the flags (`parse` takes the bin's own), then either
/// validate the trajectory file (`--validate`) or `run` the benchmark and
/// append the entry it returns — `timestamp` and `label` first, then the
/// bin's fields in the order given — and validate the file it extended.
pub fn drive<A>(
    trajectory: &Trajectory,
    parse: impl FnOnce(&mut Flags) -> Result<A, String>,
    run: impl FnOnce(&Flags, A) -> Result<Vec<(&'static str, JsonValue)>, String>,
) -> ExitCode {
    let outcome = (|| {
        let mut flags = Flags::from_env(trajectory);
        let args = parse(&mut flags)?;
        if !flags.validate {
            let mut entry = vec![
                ("timestamp", JsonValue::U64(unix_timestamp())),
                ("label", JsonValue::Str(flags.label.clone())),
            ];
            entry.extend(run(&flags, args)?);
            append_entry(&flags.out, trajectory.benchmark, JsonValue::object(entry))
                .map_err(|e| format!("append: {e}"))?;
        }
        let entries = validate_trajectory(&flags.out, trajectory.benchmark, trajectory.required)?;
        let verb = if flags.validate { "valid" } else { "appended" };
        println!("{}: {verb} ({entries} entries)", flags.out.display());
        Ok::<(), String>(())
    })();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{}: {message}", trajectory.bin);
            ExitCode::FAILURE
        }
    }
}

/// Counting wrapper over the system allocator: total allocations, total
/// bytes, and the high-water mark of live bytes (a deterministic-enough
/// peak-RSS proxy that needs no OS support). A bin that reports allocation
/// figures installs it with `#[global_allocator]`; elsewhere the counters
/// read zero.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is passed to `System` unchanged and its result
// returned unchanged; the counters are statistics that publish no data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            let live = LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }
}

impl CountingAllocator {
    /// Allocations made so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Bytes allocated so far (freed ones included).
    pub fn allocated_bytes() -> u64 {
        ALLOCATED_BYTES.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes, in MiB.
    pub fn peak_mb() -> f64 {
        PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

/// FNV-1a over a byte stream, for order-sensitive output fingerprints.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Zip seeded arrival timestamps with seeded improvement scores (uniform
/// draws from the `seed ^ 0x5EED` stream).
pub fn doc_arrivals(n: usize, seed: u64, rate: f64, pattern: ArrivalPattern) -> Vec<DocArrival> {
    let times =
        generate_arrivals(&ArrivalConfig { n_documents: n, seed, mean_rate_per_second: rate, pattern });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    times
        .into_iter()
        .map(|arrival| DocArrival { at_seconds: arrival.at_seconds, score: rng.gen_range(0.0..1.0) })
        .collect()
}
