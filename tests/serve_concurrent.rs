//! Concurrent-serving differential suite.
//!
//! Eight client threads fire requests over real TCP at a [`Server`] while
//! an ingest thread keeps writing through the durable path. Every `OK`
//! response carries the transaction tick its snapshot was pinned at, and
//! transaction time is append-only — so after the run, each response can
//! be re-derived from the final database:
//!
//! 1. rebuild the pinned view with `snapshot_at(pin)`;
//! 2. serialize the tt-prefix with `dump_snapshot` and `restore` it into a
//!    fresh in-memory database;
//! 3. replay the query there and compare element lines.
//!
//! Any divergence — a torn read, a snapshot leaking a concurrent write, a
//! pin that doesn't reproduce its view — fails the suite. A sampler thread
//! concurrently asserts the metrics registry never exposes a torn
//! histogram (`count` must equal the bucket sum in every snapshot).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tempora::design::dump::{dump_snapshot, restore};
use tempora::serve::{render_elements, Client, ResponseStatus, ServeConfig, Server};
use tempora::time::{ManualClock, Timestamp};
use tempora::wal::{DurabilityConfig, DurableDatabase, MemStorage};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 1_000;
const SEED_ROWS: i64 = 200;
const INGEST_ROWS: i64 = 300;

fn open_served() -> (Arc<DurableDatabase>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(Timestamp::from_secs(0)));
    let (db, _) = DurableDatabase::open(
        Arc::new(MemStorage::new()),
        clock.clone(),
        DurabilityConfig::default(),
    )
    .expect("open");
    db.execute_ddl(
        "CREATE TEMPORAL RELATION plant (sensor KEY, temperature VARYING) \
         AS EVENT WITH RETROACTIVE",
    )
    .expect("ddl");
    (Arc::new(db), clock)
}

/// Seeds rows so every query has data before the clients start. Writes are
/// stamped at strictly increasing transaction ticks, which keeps every pin
/// unambiguous: a pin selects exactly one tt-prefix.
fn seed(db: &DurableDatabase, clock: &ManualClock) {
    use tempora::prelude::{AttrName, ObjectId, Value};
    for i in 0..SEED_ROWS {
        clock.set(Timestamp::from_secs(10_000 + i));
        db.insert(
            "plant",
            ObjectId::new(u64::try_from(i % 8).unwrap()),
            Timestamp::from_secs(i),
            vec![(AttrName::new("temperature"), Value::Int(i % 50))],
        )
        .expect("seed insert");
    }
}

/// The deterministic per-thread query mix: full scans, WHERE filters,
/// valid-time point probes and windows, rollbacks, and object histories.
fn tql_for(thread: usize, i: usize) -> String {
    let salt = i64::try_from(thread * REQUESTS_PER_CLIENT + i).unwrap_or(0);
    match (thread + i) % 6 {
        0 => "SELECT FROM plant".to_string(),
        1 => format!("SELECT FROM plant WHERE temperature = {}", salt % 50),
        2 => format!(
            "SELECT FROM plant AT {}",
            Timestamp::from_secs(salt % (SEED_ROWS + INGEST_ROWS))
        ),
        3 => format!(
            "SELECT FROM plant AS OF {}",
            Timestamp::from_secs(10_000 + salt % (SEED_ROWS + INGEST_ROWS + 100))
        ),
        4 => format!(
            "SELECT FROM plant DURING {} TO {}",
            Timestamp::from_secs(salt % SEED_ROWS),
            Timestamp::from_secs(salt % SEED_ROWS + 40)
        ),
        _ => format!("SELECT FROM plant HISTORY OF {}", salt % 8),
    }
}

/// One observed answer: the query, the pin the server reported, and the
/// element lines of the response body (the stats line is execution-strategy
/// detail and legitimately differs between executors).
struct Observed {
    tql: String,
    pin: i64,
    elements: String,
}

fn split_elements(body: &str) -> String {
    match body.split_once('\n') {
        Some((_stats, elements)) => elements.to_string(),
        None => String::new(),
    }
}

#[test]
fn concurrent_clients_always_see_a_consistent_pinned_snapshot() {
    let (db, clock) = open_served();
    seed(&db, &clock);
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServeConfig {
            request_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr().to_string();

    let running = Arc::new(AtomicBool::new(true));
    let ingested = Arc::new(AtomicUsize::new(0));

    // Ingest: keep writing (and occasionally deleting) through the durable
    // path while the clients read. Strictly increasing transaction ticks.
    let ingest = {
        let db = Arc::clone(&db);
        let clock = Arc::clone(&clock);
        let ingested = Arc::clone(&ingested);
        std::thread::spawn(move || {
            use tempora::prelude::{AttrName, ObjectId, Value};
            let mut live = Vec::new();
            for i in 0..INGEST_ROWS {
                clock.set(Timestamp::from_secs(20_000 + 2 * i));
                if i % 10 == 9 {
                    let victim = live.swap_remove(usize::try_from(i).unwrap() % live.len());
                    db.delete("plant", victim).expect("live ingest delete");
                } else {
                    let id = db
                        .insert(
                            "plant",
                            ObjectId::new(u64::try_from(i % 8).unwrap()),
                            Timestamp::from_secs(SEED_ROWS + i),
                            vec![(AttrName::new("temperature"), Value::Int(i % 50))],
                        )
                        .expect("live ingest insert");
                    live.push(id);
                }
                ingested.fetch_add(1, Ordering::SeqCst);
                // Spread the writes across the query window.
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    // Sampler: the metrics registry must never expose a torn histogram,
    // even while servers and ingest hammer it.
    let sampler = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let mut samples = 0_u64;
            let mut torn = Vec::new();
            while running.load(Ordering::SeqCst) {
                let snap = tempora::obs::snapshot();
                for h in &snap.histograms {
                    let bucket_sum: u64 = h.buckets.iter().sum();
                    if bucket_sum != h.count {
                        torn.push(format!(
                            "{}: count {} != bucket sum {}",
                            h.name, h.count, bucket_sum
                        ));
                    }
                }
                samples += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            (samples, torn)
        })
    };

    // Clients: fire the deterministic mix, record every pinned answer.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|thread| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut observed = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut busy_retries = 0_usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let tql = tql_for(thread, i);
                    let response = loop {
                        let r = client.request(&tql).expect("request io");
                        if !r.is_retriable() {
                            break r;
                        }
                        busy_retries += 1;
                    };
                    let ResponseStatus::Ok { pin: Some(pin) } = response.status else {
                        panic!("thread {thread} req {i} ({tql}): {response:?}");
                    };
                    observed.push(Observed {
                        tql,
                        pin: pin.micros(),
                        elements: split_elements(&response.body),
                    });
                }
                (observed, busy_retries)
            })
        })
        .collect();

    let mut observed = Vec::with_capacity(CLIENTS * REQUESTS_PER_CLIENT);
    for client in clients {
        let (answers, _busy) = client.join().expect("client thread");
        observed.extend(answers);
    }
    ingest.join().expect("ingest thread");
    running.store(false, Ordering::SeqCst);
    let (samples, torn) = sampler.join().expect("sampler thread");
    assert!(samples > 0, "the sampler never ran");
    assert!(torn.is_empty(), "torn metric reads: {torn:?}");
    assert_eq!(
        ingested.load(Ordering::SeqCst),
        usize::try_from(INGEST_ROWS).unwrap(),
        "ingest stalled while serving"
    );
    server.shutdown().expect("drain");

    // Differential replay: every response must equal its query replayed
    // against a dump/restore of the snapshot's tt-prefix. Restored copies
    // are cached per pin — responses share a pin when no write lands
    // between them.
    let mut restored_by_pin = HashMap::new();
    let mut replayed = 0_usize;
    for o in &observed {
        let restored = restored_by_pin.entry(o.pin).or_insert_with(|| {
            let snap = db.db().snapshot_at(Timestamp::from_micros(o.pin));
            assert_eq!(snap.pin().micros(), o.pin);
            restore(
                Arc::new(ManualClock::new(Timestamp::from_secs(0))),
                &dump_snapshot(&snap),
            )
            .expect("restore the pinned dump")
        });
        let oracle = restored.query(&o.tql).expect("replay query");
        assert_eq!(
            render_elements(&oracle),
            o.elements,
            "response diverged from the tt-prefix replay: {} at pin {}",
            o.tql,
            o.pin
        );
        replayed += 1;
    }
    assert_eq!(replayed, CLIENTS * REQUESTS_PER_CLIENT);
    assert!(
        restored_by_pin.len() > 1,
        "expected the pin to advance during ingest; every response saw pin {:?}",
        observed.first().map(|o| o.pin)
    );
}

#[test]
fn serve_metrics_register_the_traffic() {
    let (db, clock) = open_served();
    seed(&db, &clock);
    let server =
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServeConfig::default()).expect("start");
    let addr = server.local_addr().to_string();
    let before = tempora::obs::snapshot();
    let count = |snap: &tempora::obs::MetricsSnapshot, name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name && c.label.is_none())
            .map_or(0, |c| c.value)
    };
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..10 {
        let r = client.request("SELECT FROM plant").expect("request");
        assert!(matches!(r.status, ResponseStatus::Ok { .. }));
    }
    let after = tempora::obs::snapshot();
    assert!(
        count(&after, "tempora_serve_requests_total")
            >= count(&before, "tempora_serve_requests_total") + 10,
        "requests_total must advance"
    );
    let latency = after
        .histograms
        .iter()
        .find(|h| h.name == "tempora_serve_request_seconds")
        .expect("request latency histogram registered");
    assert_eq!(latency.count, latency.buckets.iter().sum::<u64>());
    server.shutdown().expect("drain");
}
