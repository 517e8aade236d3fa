//! The benchmark's world: a Trentino-shaped deployment (4 producers,
//! 7 event classes, 8 family doctors, welfare, governance and 10 000
//! citizens with Zipf-skewed popularity) built and reopened through the
//! public `CssPlatformBuilder` / `ProducerHandle` API.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! the same organizations, events, clock readings and therefore a
//! byte-identical world directory.

use std::path::Path;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use css_core::{
    BackendProvider, CssPlatform, CssPlatformBuilder, DirProvider, ProducerHandle, Role,
};
use css_event::{EventDetails, EventSchema, FieldDef, FieldKind};
use css_storage::{FileBackend, LogBackend};
use css_types::{
    ActorId, CssError, CssResult, Duration, EventTypeId, PersonId, PersonIdentity, Purpose,
    SimClock, Timestamp,
};

/// Controller data-plane shards, pinned so the layout never follows the
/// host's core count.
pub const SHARDS: usize = 2;
/// Citizens in care.
pub const CITIZENS: usize = 10_000;
/// Family doctors (consumers with every clinical field).
pub const DOCTORS: usize = 8;
/// Events published while building the world.
pub const WORLD_EVENTS: usize = 15_000;
/// Zipf exponent of citizen popularity (rank 1 is the most active).
///
/// An assumption, not a measured figure: no source gives how activity
/// spreads over the citizens in care. The classic exponent 1 gives the
/// most active citizen a tenth of all events, so the p90 consultation
/// would fall on the boundary between the two most active citizens and
/// jump between runs; at 0.8 the most active citizen holds under 4% and
/// the busiest tenth of the traffic spreads over six citizens.
pub const ZIPF_S: f64 = 0.8;
/// Simulated time between two published events.
const EVENT_SPACING: Duration = Duration(60_000);
/// 2010-01-01, the clock's starting instant.
const EPOCH: Timestamp = Timestamp(1_262_304_000_000);

/// Which organization publishes a class.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Producer {
    Hospital,
    Municipality,
    Telecare,
    Welfare,
}

/// Who a policy grants to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Grantee {
    Doctors,
    Welfare,
    ElderlyOffice,
    Governance,
    Telecare,
}

/// The consumers that consult the index and subscribe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Consumer {
    Doctor(usize),
    Welfare,
    Governance,
}

impl Consumer {
    fn grantee(self) -> Grantee {
        match self {
            Consumer::Doctor(_) => Grantee::Doctors,
            Consumer::Welfare => Grantee::Welfare,
            Consumer::Governance => Grantee::Governance,
        }
    }

    /// Every consumer, doctors first.
    pub fn all() -> Vec<Consumer> {
        (0..DOCTORS)
            .map(Consumer::Doctor)
            .chain([Consumer::Welfare, Consumer::Governance])
            .collect()
    }
}

/// One event class of the world.
pub struct Class {
    pub code: &'static str,
    pub name: &'static str,
    pub producer: Producer,
    pub domain: &'static str,
}

/// The 7 event classes, in a fixed order (their index is used as a key).
pub const CLASSES: [Class; 7] = [
    Class {
        code: "blood-test",
        name: "Blood Test",
        producer: Producer::Hospital,
        domain: "health/laboratory",
    },
    Class {
        code: "radiology-report",
        name: "Radiology Report",
        producer: Producer::Hospital,
        domain: "health/radiology",
    },
    Class {
        code: "hospital-discharge",
        name: "Hospital Discharge",
        producer: Producer::Hospital,
        domain: "health/hospital",
    },
    Class {
        code: "home-care-service-event",
        name: "Home Care Service Event",
        producer: Producer::Telecare,
        domain: "social/home-care",
    },
    Class {
        code: "telecare-alarm",
        name: "Telecare Alarm",
        producer: Producer::Telecare,
        domain: "social/telecare",
    },
    Class {
        code: "autonomy-assessment",
        name: "Autonomy Assessment",
        producer: Producer::Welfare,
        domain: "social/welfare",
    },
    Class {
        code: "meal-delivery",
        name: "Meal Delivery",
        producer: Producer::Municipality,
        domain: "social/home-care",
    },
];

/// The type id of class `c`.
pub fn class_id(c: usize) -> EventTypeId {
    EventTypeId::v1(CLASSES[c].code)
}

fn schema(c: usize, producer: ActorId) -> EventSchema {
    use FieldDef as F;
    use FieldKind as K;
    let code = |v: &[&str]| K::Code(v.iter().map(|s| s.to_string()).collect());
    let s = EventSchema::new(class_id(c), CLASSES[c].name, producer)
        .field(F::required("PatientId", K::Integer));
    match CLASSES[c].code {
        "blood-test" => s
            .field(F::required("CollectedAt", K::DateTime))
            .field(F::required("Result", code(&["negative", "positive"])).sensitive())
            .field(F::optional("Hemoglobin", K::Decimal).sensitive())
            .field(F::optional("HivResult", K::Text).sensitive()),
        "radiology-report" => s
            .field(F::required("Modality", code(&["xray", "ct", "mri"])))
            .field(F::required("Report", K::Text).sensitive()),
        "hospital-discharge" => s
            .field(F::required("Ward", K::Text))
            .field(F::required("DischargedAt", K::DateTime))
            .field(F::optional("Diagnosis", K::Text).sensitive())
            .field(F::optional("CarePlan", K::Text).sensitive()),
        "home-care-service-event" => s
            .field(F::required("Service", K::Text))
            .field(F::required("DurationMinutes", K::Integer))
            .field(F::optional("CareNotes", K::Text).sensitive()),
        "telecare-alarm" => s
            .field(F::required(
                "AlarmKind",
                code(&["fall", "panic", "inactivity"]),
            ))
            .field(F::optional("Outcome", K::Text).sensitive()),
        "autonomy-assessment" => s
            .field(F::required("Age", K::Integer))
            .field(F::required("Sex", code(&["m", "f"])))
            .field(F::required("AutonomyScore", K::Integer).sensitive())
            .field(F::optional("PsychNotes", K::Text).sensitive()),
        _ => s
            .field(F::required("MealType", K::Text))
            .field(F::optional("DietNotes", K::Text).sensitive()),
    }
}

/// One policy of the matrix: `fields: None` grants every field.
pub struct Grant {
    pub class: usize,
    pub to: Grantee,
    pub fields: Option<&'static [&'static str]>,
    pub purposes: &'static [Purpose],
}

const TREAT: &[Purpose] = &[Purpose::HealthcareTreatment, Purpose::Emergency];
const SOCIAL: &[Purpose] = &[Purpose::SocialAssistance];
const SOCIAL_ASSESS: &[Purpose] = &[Purpose::SocialAssistance, Purpose::ServiceAssessment];
const REIMBURSE: &[Purpose] = &[Purpose::Reimbursement, Purpose::ServiceAssessment];
const STATS: &[Purpose] = &[Purpose::StatisticalAnalysis];

/// The policy matrix: doctors see clinical and telecare events in full
/// for treatment, welfare a social profile, governance statistics and
/// reimbursement fields only, telecare the discharges that activate its
/// service.
pub const GRANTS: [Grant; 14] = [
    Grant {
        class: 0,
        to: Grantee::Doctors,
        fields: None,
        purposes: TREAT,
    },
    Grant {
        class: 1,
        to: Grantee::Doctors,
        fields: None,
        purposes: TREAT,
    },
    Grant {
        class: 2,
        to: Grantee::Doctors,
        fields: None,
        purposes: TREAT,
    },
    Grant {
        class: 3,
        to: Grantee::Doctors,
        fields: None,
        purposes: TREAT,
    },
    Grant {
        class: 4,
        to: Grantee::Doctors,
        fields: None,
        purposes: TREAT,
    },
    Grant {
        class: 2,
        to: Grantee::Welfare,
        fields: Some(&["PatientId", "Ward", "DischargedAt", "CarePlan"]),
        purposes: SOCIAL,
    },
    Grant {
        class: 3,
        to: Grantee::Welfare,
        fields: None,
        purposes: SOCIAL_ASSESS,
    },
    Grant {
        class: 4,
        to: Grantee::Welfare,
        fields: Some(&["PatientId", "AlarmKind"]),
        purposes: SOCIAL,
    },
    Grant {
        class: 6,
        to: Grantee::Welfare,
        fields: None,
        purposes: SOCIAL_ASSESS,
    },
    Grant {
        class: 5,
        to: Grantee::ElderlyOffice,
        fields: None,
        purposes: SOCIAL,
    },
    Grant {
        class: 5,
        to: Grantee::Governance,
        fields: Some(&["Age", "Sex", "AutonomyScore"]),
        purposes: STATS,
    },
    Grant {
        class: 3,
        to: Grantee::Governance,
        fields: Some(&["PatientId", "Service", "DurationMinutes"]),
        purposes: REIMBURSE,
    },
    Grant {
        class: 6,
        to: Grantee::Governance,
        fields: Some(&["PatientId", "MealType"]),
        purposes: REIMBURSE,
    },
    Grant {
        class: 2,
        to: Grantee::Telecare,
        fields: Some(&["PatientId", "DischargedAt"]),
        purposes: SOCIAL,
    },
];

/// Policies the matrix installs: one per granted organization.
pub fn policy_count() -> usize {
    GRANTS
        .iter()
        .map(|g| if g.to == Grantee::Doctors { DOCTORS } else { 1 })
        .sum()
}

/// The policy `consumer` holds for class `c`, if any.
pub fn grant(consumer: Consumer, c: usize) -> Option<&'static Grant> {
    GRANTS
        .iter()
        .find(|g| g.class == c && g.to == consumer.grantee())
}

/// The purposes `consumer` may state for class `c` (empty: no policy).
pub fn allowed_purposes(consumer: Consumer, c: usize) -> &'static [Purpose] {
    grant(consumer, c).map_or(&[], |g| g.purposes)
}

/// The classes `consumer` holds a policy for, in class order.
pub fn authorized_classes(consumer: Consumer) -> Vec<usize> {
    (0..CLASSES.len())
        .filter(|&c| !allowed_purposes(consumer, c).is_empty())
        .collect()
}

/// Organization ids, minted in a fixed order (so a reopen re-mints the
/// same ids).
#[derive(Clone)]
pub struct Orgs {
    pub hospital: ActorId,
    pub municipality: ActorId,
    pub telecare: ActorId,
    pub welfare: ActorId,
    pub elderly_office: ActorId,
    pub governance: ActorId,
    pub doctors: Vec<ActorId>,
}

impl Orgs {
    pub fn producer(&self, p: Producer) -> ActorId {
        match p {
            Producer::Hospital => self.hospital,
            Producer::Municipality => self.municipality,
            Producer::Telecare => self.telecare,
            Producer::Welfare => self.welfare,
        }
    }

    pub fn consumer(&self, c: Consumer) -> ActorId {
        match c {
            Consumer::Doctor(i) => self.doctors[i],
            Consumer::Welfare => self.welfare,
            Consumer::Governance => self.governance,
        }
    }

    fn grantees(&self, g: Grantee) -> Vec<ActorId> {
        match g {
            Grantee::Doctors => self.doctors.clone(),
            Grantee::Welfare => vec![self.welfare],
            Grantee::ElderlyOffice => vec![self.elderly_office],
            Grantee::Governance => vec![self.governance],
            Grantee::Telecare => vec![self.telecare],
        }
    }
}

/// Per-citizen, per-class event counts: what every inquiry must return.
#[derive(Clone)]
pub struct Ledger {
    counts: Vec<[u32; CLASSES.len()]>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            counts: vec![[0; CLASSES.len()]; CITIZENS],
        }
    }

    fn record(&mut self, person: usize, class: usize) {
        self.counts[person][class] += 1;
    }

    /// Events about `person` in the classes `consumer` is authorized for.
    pub fn visible(&self, consumer: Consumer, person: usize) -> usize {
        authorized_classes(consumer)
            .into_iter()
            .map(|c| self.counts[person][c] as usize)
            .sum()
    }
}

/// Seeded citizens, Zipf popularity and the event mix.
pub struct Population {
    pub persons: Vec<PersonIdentity>,
    zipf_cdf: Vec<f64>,
}

impl Population {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c171_2e45);
        let persons = (0..CITIZENS)
            .map(|i| person(&mut rng, i as u64 + 1))
            .collect();
        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (1..=CITIZENS)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for p in &mut zipf_cdf {
            *p /= acc;
        }
        Population { persons, zipf_cdf }
    }

    /// A citizen index drawn by popularity.
    pub fn pick(&self, rng: &mut StdRng) -> usize {
        let u: f64 = unit(rng);
        self.zipf_cdf.partition_point(|&p| p < u).min(CITIZENS - 1)
    }
}

/// A uniform sample in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64
}

fn person(rng: &mut StdRng, id: u64) -> PersonIdentity {
    const GIVEN: [&str; 10] = [
        "Mario", "Anna", "Luca", "Giulia", "Franco", "Elena", "Paolo", "Chiara", "Sergio", "Rita",
    ];
    const FAMILY: [&str; 10] = [
        "Rossi", "Bianchi", "Ferrari", "Russo", "Gallo", "Conti", "Ricci", "Marino", "Greco",
        "Bruno",
    ];
    let fiscal_code = (0..16)
        .map(|i| {
            if i < 6 {
                (b'A' + rng.gen_range(0..26u8)) as char
            } else {
                (b'0' + rng.gen_range(0..10u8)) as char
            }
        })
        .collect();
    PersonIdentity {
        id: PersonId(id),
        fiscal_code,
        name: GIVEN[rng.gen_range(0..GIVEN.len())].to_string(),
        surname: FAMILY[rng.gen_range(0..FAMILY.len())].to_string(),
    }
}

/// One event to publish.
pub struct Event {
    pub class: usize,
    pub person: usize,
    pub details: EventDetails,
}

/// The seeded event stream: class uniform over the 7 classes, as
/// `css_sim::run_workload` draws them, citizen by popularity, details
/// from `css_sim::synth_details`.
pub struct EventStream {
    rng: StdRng,
}

impl EventStream {
    pub fn new(seed: u64) -> Self {
        EventStream {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next(&mut self, population: &Population) -> Event {
        let class = self.rng.gen_range(0..CLASSES.len());
        let person = population.pick(&mut self.rng);
        let details = css_sim::synth_details(
            &class_id(class),
            population.persons[person].id,
            &mut self.rng,
        );
        Event {
            class,
            person,
            details,
        }
    }
}

/// An open platform over a world directory, with its producer handles.
pub struct World<P: BackendProvider> {
    pub platform: CssPlatform<P>,
    pub clock: SimClock,
    pub orgs: Orgs,
    producers: Vec<(Producer, ProducerHandle<P>)>,
}

/// A builder with every host-dependent setting pinned: explicit shard
/// count, simulated clock, and no ops server, blackbox, chronicle or
/// tracing unless the caller adds them.
pub fn builder<P: BackendProvider>(provider: P, clock: &SimClock) -> CssPlatformBuilder<P> {
    CssPlatformBuilder::new()
        .provider(provider)
        .clock(Arc::new(clock.clone()))
        .shards(SHARDS)
}

impl<P: BackendProvider> World<P> {
    /// The restart path up to policy reload: build the platform (whose
    /// builder must run on `clock`), then
    /// re-register organizations, sign contracts and re-declare the
    /// event classes (code-driven, as an operator does after a restart).
    pub fn assemble(builder: CssPlatformBuilder<P>, clock: SimClock) -> CssResult<Self> {
        Self::assemble_timed(builder, clock, &mut |_| {})
    }

    /// [`World::assemble`], calling `mark` after the platform is built
    /// (before anything new is written) and again once every
    /// organization has joined, so the restart workload can time the
    /// phases and read what recovery restored.
    pub fn assemble_timed(
        builder: CssPlatformBuilder<P>,
        clock: SimClock,
        mark: &mut dyn FnMut(&CssPlatform<P>),
    ) -> CssResult<Self> {
        let mut platform = builder.build()?;
        mark(&platform);
        let hospital = platform.register_organization("Ospedale S. Chiara")?;
        let municipality = platform.register_organization("Municipality of Trento")?;
        let telecare = platform.register_organization("Telecare Trentino S.p.A.")?;
        let welfare = platform.register_organization("Social Welfare Department")?;
        let elderly_office = platform.register_unit(welfare, "Elderly Care Office")?;
        let governance = platform.register_organization("Provincia Autonoma di Trento")?;
        let mut doctors = Vec::with_capacity(DOCTORS);
        for i in 0..DOCTORS {
            doctors.push(platform.register_organization(&format!("Family Doctor {}", i + 1))?);
        }
        let orgs = Orgs {
            hospital,
            municipality,
            telecare,
            welfare,
            elderly_office,
            governance,
            doctors,
        };
        for p in [hospital, municipality, telecare, welfare] {
            platform.join(p, Role::Both)?;
        }
        for c in orgs.doctors.iter().copied().chain([governance]) {
            platform.join(c, Role::Consumer)?;
        }
        let mut producers = Vec::new();
        for p in [
            Producer::Hospital,
            Producer::Municipality,
            Producer::Telecare,
            Producer::Welfare,
        ] {
            producers.push((p, platform.producer(orgs.producer(p))?));
        }
        for (c, class) in CLASSES.iter().enumerate() {
            let actor = orgs.producer(class.producer);
            platform
                .producer(actor)?
                .declare(&schema(c, actor), Some(class.domain))?;
        }
        mark(&platform);
        Ok(World {
            platform,
            clock,
            orgs,
            producers,
        })
    }

    /// A new world: assemble, install the policy matrix and publish
    /// [`WORLD_EVENTS`] seeded events, calling `each` after every
    /// publish. `open` makes the builder for the world's clock. Returns
    /// the world and its ledger.
    pub fn create(
        open: impl FnOnce(&SimClock) -> CssResult<CssPlatformBuilder<P>>,
        population: &Population,
        seed: u64,
        each: &mut dyn FnMut(usize),
    ) -> CssResult<(Self, Ledger)> {
        let clock = SimClock::starting_at(EPOCH);
        let world = Self::assemble(open(&clock)?, clock)?;
        for (i, grant) in GRANTS.iter().enumerate() {
            let owner = world.orgs.producer(CLASSES[grant.class].producer);
            let wizard = world
                .platform
                .producer(owner)?
                .policy_wizard(&class_id(grant.class))?;
            let wizard = match grant.fields {
                None => wizard.select_all_fields(),
                Some(fields) => wizard
                    .select_fields(fields.iter().copied())
                    .map_err(CssError::from)?,
            };
            wizard
                .grant_to(world.orgs.grantees(grant.to))
                .map_err(CssError::from)?
                .for_purposes(grant.purposes.iter().cloned())
                .labeled(format!("grant-{i}"), "benchmark policy matrix")
                .save()?;
        }
        let mut ledger = Ledger::new();
        let mut stream = EventStream::new(seed);
        for i in 0..WORLD_EVENTS {
            let event = stream.next(population);
            world.publish(population, &event)?;
            ledger.record(event.person, event.class);
            each(i);
        }
        Ok((world, ledger))
    }

    /// Publish one event through its producer's handle.
    pub fn publish(
        &self,
        population: &Population,
        event: &Event,
    ) -> CssResult<css_controller::PublishReceipt> {
        let producer = CLASSES[event.class].producer;
        let handle = &self
            .producers
            .iter()
            .find(|(p, _)| *p == producer)
            .expect("every producer has a handle")
            .1;
        let at = self.clock.advance(EVENT_SPACING);
        handle.publish(
            population.persons[event.person].clone(),
            CLASSES[event.class].name,
            event.details.clone(),
            at,
        )
    }

    /// Detail messages stored at every producer's gateway.
    pub fn gateway_stored(&self) -> usize {
        self.producers
            .iter()
            .map(|(_, h)| h.gateway_stored_count())
            .sum()
    }
}

/// `DirProvider`'s files with `sync` a no-op, as on a tmpfs. Every run
/// writes its world inside its checkout, which on a shared host sits on
/// a disk whose `fdatasync` queue moved publish latency, its tail and
/// set-up time by a fifth or more between runs while everything else
/// held. The bytes written are the same; the per-layer counts still show
/// every sync the platform asks for.
pub struct UnsyncedDir(DirProvider);

impl UnsyncedDir {
    /// Files under `dir` (created if missing).
    pub fn new(dir: &Path) -> CssResult<Self> {
        Ok(UnsyncedDir(DirProvider::new(dir)?))
    }
}

impl BackendProvider for UnsyncedDir {
    type Backend = Unsynced;

    fn backend(&self, name: &str) -> CssResult<Unsynced> {
        Ok(Unsynced(self.0.backend(name)?))
    }
}

/// A `FileBackend` that never syncs.
pub struct Unsynced(FileBackend);

impl LogBackend for Unsynced {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        self.0.append(data)
    }

    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        self.0.read_at(offset, len)
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn sync(&mut self) -> CssResult<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.0.truncate(len)
    }
}

/// A digest of a world directory: every log file's name and size plus
/// the audit chain head, as 16 hex digits.
pub fn fingerprint(dir: &Path, audit_head: [u8; 32]) -> CssResult<String> {
    let mut files: Vec<(String, u64)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        files.push((
            entry.file_name().to_string_lossy().into_owned(),
            entry.metadata()?.len(),
        ));
    }
    files.sort();
    let mut text = String::new();
    for (name, len) in &files {
        text.push_str(&format!("{name}={len};"));
    }
    let mut bytes = text.into_bytes();
    bytes.extend_from_slice(&audit_head);
    let digest = css_crypto::sha256(&bytes);
    Ok(digest[..8].iter().map(|b| format!("{b:02x}")).collect())
}

/// Total bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> CssResult<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Copy every file of `from` into the new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> CssResult<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
