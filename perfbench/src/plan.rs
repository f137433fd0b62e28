//! Seeded workload plans: the corpus specification, the request order
//! and the arrival schedule. A plan is a pure function of the workload,
//! the seed and the run length; the program only ever sees the bytes
//! the corpus encodes from it.

use crate::design::{self, Geometry};
use crate::rng::Rng;
use jpeg2000::codec::{EncodeParams, Mode};
use jpeg2000::image::Image;
use jpeg2000::service::RequestKind;
use std::collections::HashSet;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over TCP; every request is a cold decode.
    ColdNet,
    /// Closed loop over TCP; every request is an image-cache hit.
    HotNet,
    /// Open loop in process; Zipf popularity, all four kinds.
    ZipfService,
    /// Offline tile-parallel decode of larger images.
    BatchParallel,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdNet,
        Workload::HotNet,
        Workload::ZipfService,
        Workload::BatchParallel,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdNet => "cold-net",
            Workload::HotNet => "hot-net",
            Workload::ZipfService => "zipf-service",
            Workload::BatchParallel => "batch-parallel",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::ColdNet => 1,
            Workload::HotNet => 2,
            Workload::ZipfService => 3,
            Workload::BatchParallel => 4,
        }
    }
}

/// One corpus stream: what the encoder is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamSpec {
    /// Seed of the synthetic source image.
    pub image_seed: u64,
    /// Image and tile size.
    pub geometry: Geometry,
    /// Quality layers.
    pub layers: u8,
    /// Irreversible (9/7 + ICT) rather than reversible coding.
    pub lossy: bool,
}

impl StreamSpec {
    /// The source image.
    pub fn image(&self) -> Image {
        let g = self.geometry;
        Image::synthetic_rgb(g.size, g.size, self.image_seed)
    }

    /// The encoder parameters.
    pub fn params(&self) -> EncodeParams {
        let mode = if self.lossy {
            Mode::lossy_default()
        } else {
            Mode::Lossless
        };
        EncodeParams::new(mode)
            .tile_size(self.geometry.tile, self.geometry.tile)
            .layers(self.layers)
    }
}

/// One request: a corpus stream and the decode kind asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Entry {
    /// Index into [`Plan::streams`].
    pub stream: usize,
    /// The decode variant.
    pub kind: RequestKind,
}

impl Entry {
    /// Whether the kind decodes only part of the stream.
    pub fn is_partial(&self) -> bool {
        matches!(
            self.kind,
            RequestKind::Quality { .. } | RequestKind::Thumbnail { .. }
        )
    }
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time after the phase start.
    pub at_ns: u64,
    /// What is requested.
    pub entry: Entry,
}

/// One open-loop phase at a fixed offered rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate_rps: f64,
    /// Scheduled length in nanoseconds.
    pub duration_ns: u64,
    /// Arrivals in due order.
    pub arrivals: Vec<Arrival>,
}

/// A workload's complete, seeded plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed everything derives from.
    pub seed: u64,
    /// The corpus.
    pub streams: Vec<StreamSpec>,
    /// Set-up requests, issued before the first timed request.
    pub warmup: Vec<Entry>,
    /// Closed-loop and batch issue order, cycled.
    pub cycle: Vec<Entry>,
    /// Open-loop schedule (zipf-service): one phase per rung of the
    /// rate ladder.
    pub phases: Vec<Phase>,
    /// Load-generator threads.
    pub threads: usize,
    /// Load-generator connections.
    pub connections: usize,
}

/// Threads the host can run at once.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn spec(rng: &mut Rng, geometry: Geometry, layers: u8, lossy: bool) -> StreamSpec {
    StreamSpec {
        image_seed: rng.next_u64(),
        geometry,
        layers,
        lossy,
    }
}

/// `n` specs, alternately lossless and lossy, in seeded order.
fn mixed_specs(rng: &mut Rng, n: usize, geometry: Geometry, layers: u8) -> Vec<StreamSpec> {
    let mut specs: Vec<StreamSpec> = (0..n)
        .map(|i| spec(rng, geometry, layers, i % 2 == 1))
        .collect();
    rng.shuffle(&mut specs);
    specs
}

impl Plan {
    /// The plan for `workload` under `seed`, for a run of `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        let mut rng = Rng::derive(seed, workload.salt());
        let net_conns = design::NET_CONNECTIONS.min(available_parallelism());
        let mut plan = Plan {
            workload,
            seed,
            streams: Vec::new(),
            warmup: Vec::new(),
            cycle: Vec::new(),
            phases: Vec::new(),
            threads: 1,
            connections: 0,
        };
        match workload {
            Workload::ColdNet => {
                plan.streams = mixed_specs(&mut rng, design::COLD_STREAMS, design::TABLE1, 1);
                plan.cycle = (0..plan.streams.len())
                    .flat_map(|s| {
                        [RequestKind::Strict, RequestKind::Tolerant]
                            .map(|kind| Entry { stream: s, kind })
                    })
                    .collect();
                rng.shuffle(&mut plan.cycle);
                // One warm-up stream per connection, outside the cycle.
                for lossy in [false, true].into_iter().cycle().take(net_conns) {
                    plan.streams.push(spec(&mut rng, design::TABLE1, 1, lossy));
                    plan.warmup.push(Entry {
                        stream: plan.streams.len() - 1,
                        kind: RequestKind::Strict,
                    });
                }
                plan.threads = net_conns;
                plan.connections = net_conns;
            }
            Workload::HotNet => {
                plan.streams = mixed_specs(&mut rng, design::HOT_STREAMS, design::TABLE1, 1);
                plan.warmup = (0..plan.streams.len())
                    .flat_map(|s| {
                        [RequestKind::Strict, design::HOT_THUMBNAIL]
                            .map(|kind| Entry { stream: s, kind })
                    })
                    .collect();
                plan.cycle = (0..design::HOT_SEQUENCE)
                    .map(|_| {
                        let stream = rng.below(design::HOT_STREAMS);
                        let kind = if rng.unit() < design::HOT_THUMBNAIL_SHARE {
                            design::HOT_THUMBNAIL
                        } else {
                            RequestKind::Strict
                        };
                        Entry { stream, kind }
                    })
                    .collect();
                plan.threads = net_conns;
                plan.connections = net_conns;
            }
            Workload::ZipfService => {
                plan.streams = mixed_specs(
                    &mut rng,
                    design::ZIPF_STREAMS,
                    design::TABLE1,
                    design::ZIPF_LAYERS,
                );
                let zipf = Zipf::new(design::ZIPF_STREAMS, design::ZIPF_S);
                plan.warmup = zipf.most_popular(design::ZIPF_WARM_ENTRIES);
                plan.cycle = (0..design::ZIPF_SEQUENCE)
                    .map(|_| zipf.draw(&mut rng))
                    .collect();
                let ladder = design::ZIPF_LADDER_RPS;
                let rung_s = seconds * design::ZIPF_LADDER_SHARE / ladder.len() as f64;
                plan.phases = ladder
                    .iter()
                    .map(|&rate| zipf.phase(&mut rng, rate, rung_s))
                    .collect();
            }
            Workload::BatchParallel => {
                let n = design::BATCH_LOSSLESS + design::BATCH_LOSSY;
                plan.streams = (0..n)
                    .map(|i| {
                        spec(
                            &mut rng,
                            design::BATCH_GEOMETRY,
                            1,
                            i >= design::BATCH_LOSSLESS,
                        )
                    })
                    .collect();
                // Calls alternate strict (`decode_parallel`) and
                // tolerant (`decode_tolerant_parallel`). The second
                // round swaps neighbours of the seeded first-round
                // order, so every image is decoded both ways.
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                let swapped = order.chunks(2).flat_map(|p| p.iter().rev().copied());
                let kinds = [RequestKind::Strict, RequestKind::Tolerant];
                plan.cycle = order
                    .iter()
                    .copied()
                    .chain(swapped)
                    .enumerate()
                    .map(|(i, stream)| Entry {
                        stream,
                        kind: kinds[i % 2],
                    })
                    .collect();
                plan.warmup = vec![plan.cycle[0]];
            }
        }
        plan
    }

    /// Every entry the plan can request, without repeats, in first-use
    /// order: what the corpus needs references for.
    pub fn entries(&self) -> Vec<Entry> {
        let mut seen = HashSet::new();
        let arrivals = self
            .phases
            .iter()
            .flat_map(|p| p.arrivals.iter().map(|a| a.entry));
        self.warmup
            .iter()
            .copied()
            .chain(self.cycle.iter().copied())
            .chain(arrivals)
            .filter(|e| seen.insert(*e))
            .collect()
    }

    /// A hash of the request schedule: issue order, kinds and due
    /// times.
    pub fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::default();
        let entry = |h: &mut Fnv, e: &Entry| {
            h.u64(e.stream as u64);
            let (tag, param) = match e.kind {
                RequestKind::Strict => (0, 0),
                RequestKind::Tolerant => (1, 0),
                RequestKind::Quality { max_layers } => (2, max_layers),
                RequestKind::Thumbnail { max_res } => (3, max_res),
            };
            h.u64(tag);
            h.u64(param as u64);
        };
        for e in self.warmup.iter().chain(&self.cycle) {
            entry(&mut h, e);
        }
        for p in &self.phases {
            h.u64(p.rate_rps.to_bits());
            h.u64(p.duration_ns);
            for a in &p.arrivals {
                h.u64(a.at_ns);
                entry(&mut h, &a.entry);
            }
        }
        h.0
    }

    /// A hash of the corpus specification (seeds, geometry, modes).
    pub fn corpus_spec_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.streams {
            h.u64(s.image_seed);
            h.u64(s.geometry.size as u64);
            h.u64(s.geometry.tile as u64);
            h.u64(u64::from(s.layers));
            h.u64(u64::from(s.lossy));
        }
        h.0
    }
}

/// FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs one word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Zipf popularity over stream ranks (rank `r` is stream `r`; stream
/// order is already seeded) and the fixed kind mix.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn weight(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    fn draw(&self, rng: &mut Rng) -> Entry {
        let u = rng.unit();
        let stream = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        let v = rng.unit();
        let mut acc = 0.0;
        let mut kind = design::ZIPF_KIND_MIX[0].0;
        for (k, p, _) in design::ZIPF_KIND_MIX {
            acc += p;
            kind = k;
            if v < acc {
                break;
            }
        }
        Entry { stream, kind }
    }

    /// The `n` most probable `(stream, kind)` pairs.
    fn most_popular(&self, n: usize) -> Vec<Entry> {
        let mut all: Vec<(f64, Entry)> = (0..self.cdf.len())
            .flat_map(|stream| {
                design::ZIPF_KIND_MIX
                    .map(|(kind, p, _)| (self.weight(stream) * p, Entry { stream, kind }))
            })
            .collect();
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        all.into_iter().take(n).map(|(_, e)| e).collect()
    }

    /// A Poisson phase conditioned on its count: `rate × secs` arrivals
    /// at sorted uniform times, so every seed offers the same number of
    /// requests over the same span.
    fn phase(&self, rng: &mut Rng, rate: f64, secs: f64) -> Phase {
        let duration_ns = (secs * 1e9) as u64;
        let n = (rate * secs).round() as usize;
        let mut times: Vec<u64> = (0..n)
            .map(|_| (rng.unit() * duration_ns as f64) as u64)
            .collect();
        times.sort_unstable();
        Phase {
            rate_rps: rate,
            duration_ns,
            arrivals: times
                .into_iter()
                .map(|at_ns| Arrival {
                    at_ns,
                    entry: self.draw(rng),
                })
                .collect(),
        }
    }
}
