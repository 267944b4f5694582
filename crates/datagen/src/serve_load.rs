//! Closed-loop serving load generation: seeded virtual-client
//! populations (10⁵–10⁶ clients are plain structs, not threads) with
//! think times, per-tenant template mixes, and priority classes, all on
//! a **virtual clock** so the arrival process is a pure function of its
//! seed.
//!
//! The generator is *closed-loop*: a client has at most one request in
//! flight — it submits, waits for the serving layer to answer, thinks
//! for an exponentially-distributed virtual interval, and submits
//! again. The serving layer (`ml4db-serve`) drives the loop by popping
//! arrivals with [`LoadGen::next_arrival`] and acknowledging
//! completions with [`LoadGen::complete`]; back-pressure therefore
//! shapes the offered load exactly as it would with real clients.
//!
//! # Determinism
//!
//! Arrival order is a total order on `(virtual time, client id)`, think
//! times are drawn from per-client RNGs seeded as `seed ^ client_id`,
//! and template/variant choices consume only the owning client's RNG —
//! so two generators built with equal `(spec, mix, seed)` emit
//! byte-identical request streams no matter how the consumer schedules
//! its worker threads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ml4db_plan::Query;
use ml4db_storage::Database;

use crate::workload::{SchemaGraph, WorkloadConfig, WorkloadGenerator};

/// Per-tenant pools of parameterized query templates.
///
/// A template is a fixed join structure; its *variants* differ only in
/// predicate constants, quantized to a small per-template set the way
/// parameterized production queries cluster around a few bind values.
/// Quantization is what makes serving plan caches effective: distinct
/// fingerprints stay bounded at `templates × variants` per tenant.
#[derive(Clone, Debug)]
pub struct TemplateMix {
    /// `pools[tenant][template][variant]` — ready-to-submit queries.
    pub pools: Vec<Vec<Vec<Query>>>,
}

impl TemplateMix {
    /// Generates a mix: `tenants` pools of `templates` join structures ×
    /// `variants` constant bindings each, drawn from `generator` over
    /// `db`. Deterministic in `seed`.
    pub fn generate(
        db: &Database,
        graph: &SchemaGraph,
        tenants: u32,
        templates: usize,
        variants: usize,
        seed: u64,
    ) -> Self {
        let gen = WorkloadGenerator::new(graph.clone(), WorkloadConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let pools = (0..tenants)
            .map(|_| {
                (0..templates)
                    .map(|_| {
                        let base = gen.generate(db, &mut rng);
                        (0..variants)
                            .map(|_| {
                                let mut q = base.clone();
                                // Re-bind constants on the template's own
                                // predicate structure: shift each value a
                                // few quantized steps so variants share a
                                // plan shape but not a fingerprint.
                                for p in &mut q.predicates {
                                    let step = rng.gen_range(-3i32..=3i32);
                                    p.value = (p.value + f64::from(step) * p.value.abs().max(1.0) * 0.05)
                                        .round();
                                }
                                q
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Self { pools }
    }

    /// Number of tenants in the mix.
    pub fn tenants(&self) -> u32 {
        self.pools.len() as u32
    }
}

/// Knobs of a closed-loop client population.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Number of virtual clients (structs, not threads; 10⁶ is fine).
    pub clients: u32,
    /// Priority classes; class = client id modulo this (0 is highest).
    pub classes: u8,
    /// Mean think time between a response and the next request, in
    /// virtual nanoseconds (exponentially distributed per client).
    pub mean_think_ns: u64,
    /// Total requests the population will issue before going quiet.
    pub total_requests: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self { clients: 1_000, classes: 3, mean_think_ns: 1_000_000, total_requests: 10_000 }
    }
}

/// One popped arrival: which client fires at which virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual timestamp in nanoseconds.
    pub vtime_ns: u64,
    /// Client index.
    pub client: u32,
}

/// A generated request, ready for the serving layer to wrap.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// Issuing client.
    pub client: u32,
    /// Tenant the client belongs to.
    pub tenant: u32,
    /// Priority class (0 = most latency-sensitive).
    pub class: u8,
    /// The parameterized query instance.
    pub query: Query,
}

struct ClientState {
    tenant: u32,
    class: u8,
    rng: StdRng,
}

/// The seeded closed-loop generator. See the module docs for the
/// protocol: `next_arrival` → build the request → serve it → `complete`.
pub struct LoadGen {
    spec: LoadSpec,
    mix: TemplateMix,
    clients: Vec<ClientState>,
    /// Min-heap on (virtual time, client id) — the total arrival order.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    issued: u64,
}

impl LoadGen {
    /// Builds the population and schedules every client's first arrival
    /// (staggered by one think-time draw, so a million clients do not
    /// arrive in the same nanosecond).
    pub fn new(spec: LoadSpec, mix: TemplateMix, seed: u64) -> Self {
        assert!(spec.clients > 0 && spec.classes > 0, "empty population");
        assert!(mix.tenants() > 0, "template mix has no tenants");
        let mut clients = Vec::with_capacity(spec.clients as usize);
        let mut heap = BinaryHeap::with_capacity(spec.clients as usize);
        for id in 0..spec.clients {
            let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let tenant = id % mix.tenants();
            let class = (id % u32::from(spec.classes)) as u8;
            let first = Self::think_draw(&mut rng, spec.mean_think_ns);
            heap.push(Reverse((first, id)));
            clients.push(ClientState { tenant, class, rng });
        }
        Self { spec, mix, clients, heap, issued: 0 }
    }

    /// Exponential think-time draw via inverse CDF, quantized to whole
    /// nanoseconds (≥ 1) so virtual timestamps are exact integers.
    fn think_draw(rng: &mut StdRng, mean_ns: u64) -> u64 {
        let u: f64 = rng.gen::<f64>();
        let t = -(mean_ns as f64) * (1.0 - u).max(f64::MIN_POSITIVE).ln();
        (t as u64).max(1)
    }

    /// The next arrival in virtual-time order without consuming it —
    /// event-loop consumers must peek rather than hold a popped arrival,
    /// because a completion acknowledged in between can schedule an
    /// *earlier* re-arrival.
    pub fn peek_arrival(&self) -> Option<Arrival> {
        if self.issued >= self.spec.total_requests {
            return None;
        }
        self.heap.peek().map(|Reverse((vtime_ns, client))| Arrival { vtime_ns: *vtime_ns, client: *client })
    }

    /// Pops the next arrival in virtual-time order, or `None` once the
    /// population has issued [`LoadSpec::total_requests`] and the heap
    /// has drained.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        if self.issued >= self.spec.total_requests {
            self.heap.clear();
            return None;
        }
        let Reverse((vtime_ns, client)) = self.heap.pop()?;
        self.issued += 1;
        Some(Arrival { vtime_ns, client })
    }

    /// Builds the request for a popped arrival: the client picks one
    /// template variant from its tenant's pool using its own RNG.
    pub fn request_for(&mut self, client: u32) -> GenRequest {
        let c = &mut self.clients[client as usize];
        let pool = &self.mix.pools[c.tenant as usize];
        let t = c.rng.gen_range(0..pool.len());
        let v = c.rng.gen_range(0..pool[t].len());
        GenRequest { client, tenant: c.tenant, class: c.class, query: pool[t][v].clone() }
    }

    /// Acknowledges a response delivered to `client` at virtual time
    /// `now_ns`: the client thinks, then re-arrives. Shed and rejected
    /// requests should be acknowledged too — real clients back off and
    /// retry rather than vanish.
    pub fn complete(&mut self, client: u32, now_ns: u64) {
        if self.issued >= self.spec.total_requests {
            return;
        }
        let think = {
            let c = &mut self.clients[client as usize];
            Self::think_draw(&mut c.rng, self.spec.mean_think_ns)
        };
        self.heap.push(Reverse((now_ns.saturating_add(think), client)));
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Requests the population may still issue.
    pub fn remaining(&self) -> u64 {
        self.spec.total_requests.saturating_sub(self.issued)
    }

    /// The spec this generator was built with.
    pub fn spec(&self) -> &LoadSpec {
        &self.spec
    }

    /// The tenant a client belongs to.
    pub fn tenant_of(&self, client: u32) -> u32 {
        self.clients[client as usize].tenant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4db_storage::datasets::joblite_db;

    fn db() -> Database {
        let mut rng = StdRng::seed_from_u64(1);
        joblite_db(100, &[], &mut rng)
    }

    fn mix(db: &Database) -> TemplateMix {
        TemplateMix::generate(db, &SchemaGraph::joblite(), 3, 4, 3, 11)
    }

    #[test]
    fn templates_validate_and_quantize() {
        let db = db();
        let m = mix(&db);
        assert_eq!(m.tenants(), 3);
        let mut distinct = std::collections::BTreeSet::new();
        for pool in &m.pools {
            assert_eq!(pool.len(), 4);
            for tpl in pool {
                assert_eq!(tpl.len(), 3);
                for q in tpl {
                    q.validate(&db).unwrap();
                    distinct.insert(q.fingerprint());
                }
            }
        }
        // Bounded fingerprint population: at most tenants×templates×variants.
        assert!(distinct.len() <= 3 * 4 * 3);
        assert!(distinct.len() > 4, "variants should move fingerprints");
    }

    #[test]
    fn arrival_stream_is_seed_deterministic() {
        let db = db();
        let spec = LoadSpec { clients: 200, total_requests: 500, ..Default::default() };
        let mut a = LoadGen::new(spec.clone(), mix(&db), 42);
        let mut b = LoadGen::new(spec, mix(&db), 42);
        let mut n = 0u64;
        while let (Some(x), Some(y)) = (a.next_arrival(), b.next_arrival()) {
            assert_eq!(x, y);
            let (rx, ry) = (a.request_for(x.client), b.request_for(y.client));
            assert_eq!(rx.query.fingerprint(), ry.query.fingerprint());
            assert_eq!((rx.tenant, rx.class), (ry.tenant, ry.class));
            a.complete(x.client, x.vtime_ns + 10_000);
            b.complete(y.client, y.vtime_ns + 10_000);
            n += 1;
        }
        assert_eq!(n, 500, "closed loop must issue exactly total_requests");
        assert!(a.next_arrival().is_none());
    }

    #[test]
    fn different_seeds_differ() {
        let db = db();
        let spec = LoadSpec { clients: 50, total_requests: 50, ..Default::default() };
        let mut a = LoadGen::new(spec.clone(), mix(&db), 1);
        let mut b = LoadGen::new(spec, mix(&db), 2);
        let xa: Vec<_> = std::iter::from_fn(|| a.next_arrival()).collect();
        let xb: Vec<_> = std::iter::from_fn(|| b.next_arrival()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn population_scales_to_hundreds_of_thousands() {
        let db = db();
        let spec = LoadSpec { clients: 200_000, total_requests: 1_000, ..Default::default() };
        let mut g = LoadGen::new(spec, mix(&db), 7);
        let mut seen = 0;
        while let Some(a) = g.next_arrival() {
            assert!(a.client < 200_000);
            seen += 1;
        }
        assert_eq!(seen, 1_000);
    }
}
