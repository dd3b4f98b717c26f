//! The seeded `serve-mixed` request mix, shared by the loopback load
//! generator and the in-process traced replay so both drive the daemon's
//! code with the same request lines.
//!
//! Shares are exact within every block of 20 requests, in seeded order:
//!
//! | class | share | request |
//! |---|---|---|
//! | hit   | 65% | one of the registry experiments at paper defaults |
//! | miss  | 15% | `fig10` with a fresh `grid.intensity`, or `ext-facility` with a fresh `fleet.growth` |
//! | sweep | 15% | one of eight fixed 3-point `grid.intensity` sweeps of `fig10` |
//! | mc    |  5% | `ext-facility`, `fleet.growth ~ uniform(1.2,1.4)`, 200 samples, fresh seed, `no_cache` |
//!
//! The Monte-Carlo requests bypass the cache: with fresh seeds their 200
//! samples per request would be ~10k inserts per second at 1000 req/s,
//! turning the 4096-entry FIFO cache over every ~0.4 s and evicting the
//! hit class, which is meant to stay resident after warm-up.

/// SplitMix64: tiny, seedable and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival time (seconds) of a Poisson process.
    pub fn exp(&mut self, rate_per_s: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate_per_s
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Hit,
    Miss,
    Sweep,
    Mc,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Hit, Class::Miss, Class::Sweep, Class::Mc];

    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Sweep => "sweep",
            Class::Mc => "mc",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated `run` request: its class, the JSON body (everything after
/// `op` and `id`) and the equivalent one-shot `repro` arguments.
pub struct Request {
    pub class: Class,
    pub body: String,
    pub argv: Vec<String>,
}

impl Request {
    /// The id-tagged protocol v2 request line, newline-terminated.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"op\":\"run\",\"id\":{id},{}}}\n", self.body)
    }

    fn hit(key: &str) -> Self {
        Self {
            class: Class::Hit,
            body: format!("\"experiments\":[\"{key}\"]"),
            argv: vec![key.to_string()],
        }
    }

    fn miss(key: &str, field: &str, value: &str) -> Self {
        Self {
            class: Class::Miss,
            body: format!("\"experiments\":[\"{key}\"],\"set\":{{\"{field}\":\"{value}\"}}"),
            argv: vec!["--set".into(), format!("{field}={value}"), key.to_string()],
        }
    }

    fn sweep(values: &str) -> Self {
        Self {
            class: Class::Sweep,
            body: format!("\"experiments\":[\"fig10\"],\"sweep\":[\"grid.intensity={values}\"]"),
            argv: vec![
                "--sweep".into(),
                format!("grid.intensity={values}"),
                "fig10".into(),
            ],
        }
    }

    fn mc(seed: u64) -> Self {
        Self {
            class: Class::Mc,
            body: format!(
                "\"experiments\":[\"ext-facility\"],\"dists\":[\"{MC_DIST}\"],\
                 \"samples\":{MC_SAMPLES},\"seed\":{seed},\"no_cache\":true"
            ),
            argv: vec![
                "--no-cache".into(),
                "--set".into(),
                MC_DIST.into(),
                "--samples".into(),
                MC_SAMPLES.to_string(),
                "--seed".into(),
                seed.to_string(),
                "ext-facility".into(),
            ],
        }
    }
}

const SWEEPS: [&str; 8] = [
    "100,200,300",
    "150,250,350",
    "200,300,400",
    "250,350,450",
    "300,400,500",
    "350,450,550",
    "400,500,600",
    "450,550,650",
];
const MC_DIST: &str = "fleet.growth ~ uniform(1.2,1.4)";
const MC_SAMPLES: usize = 200;

/// Client connections, one per core of the two-core host; each has its own
/// arrival stream carrying `1 / CONNS` of the open-loop rate.
pub const CONNS: usize = 2;

/// Every registry key, in registry order.
pub fn keys() -> Vec<&'static str> {
    cc_core::experiments::entries()
        .iter()
        .map(|e| e.key)
        .collect()
}

/// Class counts per block of 20 requests: 65% hit, 15% miss, 15%
/// sweep, 5% Monte-Carlo exactly, so every seed offers the same load.
const BLOCK: [(Class, usize); 4] = [
    (Class::Hit, 13),
    (Class::Miss, 3),
    (Class::Sweep, 3),
    (Class::Mc, 1),
];

/// A seeded shuffle of one block's classes.
fn block(rng: &mut Rng) -> Vec<Class> {
    let mut classes: Vec<Class> = BLOCK
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i + 1));
    }
    classes
}

/// Draws a request of `class` with seeded parameters.
fn draw(class: Class, rng: &mut Rng, keys: &[&'static str]) -> Request {
    match class {
        Class::Hit => Request::hit(keys[rng.below(keys.len())]),
        Class::Miss => {
            if rng.below(2) == 0 {
                let value = format!("{:.6}", 50.0 + 650.0 * rng.unit());
                Request::miss("fig10", "grid.intensity", &value)
            } else {
                let value = format!("{:.6}", 1.1 + 0.4 * rng.unit());
                Request::miss("ext-facility", "fleet.growth", &value)
            }
        }
        Class::Sweep => Request::sweep(SWEEPS[rng.below(SWEEPS.len())]),
        Class::Mc => Request::mc(rng.next_u64() >> 32),
    }
}

/// One connection's seeded open-loop arrival stream: Poisson due times
/// (seconds from the phase start) and the request due at each. The load
/// generator and the traced replay draw from identical streams, so the
/// replay sees the same request lines the daemon was sent.
pub struct Stream {
    rng: Rng,
    rate: f64,
    next_due: f64,
    pending: Vec<Class>,
}

impl Stream {
    pub fn new(seed: u64, conn: usize, rate_per_s: f64) -> Self {
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ conn as u64);
        let next_due = rng.exp(rate_per_s);
        Self {
            rng,
            rate: rate_per_s,
            next_due,
            pending: Vec::new(),
        }
    }

    /// When the next request is due, in seconds from the phase start.
    pub fn next_due(&self) -> f64 {
        self.next_due
    }

    /// Draws the due request and schedules the one after it.
    pub fn take(&mut self, keys: &[&'static str]) -> Request {
        if self.pending.is_empty() {
            self.pending = block(&mut self.rng);
        }
        let class = self.pending.pop().expect("refilled above");
        let request = draw(class, &mut self.rng, keys);
        self.next_due += self.rng.exp(self.rate);
        request
    }
}

/// The next `count` requests of several connections' streams, merged in
/// arrival order — the order the daemon sees them in the open loop.
pub fn arrivals(streams: &mut [Stream], keys: &[&'static str], count: usize) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let first = streams
                .iter_mut()
                .min_by(|a, b| a.next_due.total_cmp(&b.next_due))
                .expect("at least one stream");
            first.take(keys)
        })
        .collect()
}

/// The warm-up pass: every hit request once and every fixed sweep once, so
/// the hit and sweep classes are resident before measuring, plus one
/// Monte-Carlo request to touch that path.
pub fn warmup(keys: &[&'static str]) -> Vec<Request> {
    let mut requests: Vec<Request> = keys.iter().map(|k| Request::hit(k)).collect();
    requests.extend(SWEEPS.iter().map(|v| Request::sweep(v)));
    requests.push(Request::mc(0));
    requests
}
