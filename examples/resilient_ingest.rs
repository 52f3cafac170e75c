//! Fault-tolerant Fig.-2 labeling: stream a damaged disk-resident basket
//! database through the resilient driver, survive an interruption, and
//! resume from the checkpoint to a bit-identical result.
//!
//! ```text
//! cargo run --release --example resilient_ingest
//! ```
//!
//! The demo clusters a clean in-memory sample, then labels a corrupted
//! on-"disk" image (garbage tokens + truncated lines) through a reader
//! that also fails transiently. One fault burst exceeds the retry budget
//! and interrupts the run; the carried checkpoint is persisted through
//! its text encoding and the pass resumes over a healthy reader. The
//! stitched output must equal an uninterrupted pass exactly.

use rock::governor::RunGovernor;
use rock::labeling::Labeler;
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock_data::faults::{corrupt_baskets, FaultSpec, FaultyReader};
use rock_data::resilient::{
    label_stream_resilient, Checkpoint, ResilientConfig, RetryPolicy,
};
use rock_data::write_baskets;
use std::io::BufReader;

fn main() {
    // --- a small database: two buying patterns plus scattered outliers.
    let mut db: Vec<Transaction> = Vec::new();
    for i in 0..600u32 {
        db.push(match i % 10 {
            0..=3 => Transaction::from([1, 2, 3 + i % 2]),      // pattern A
            4..=7 => Transaction::from([10, 11, 12 + i % 2]),   // pattern B
            _ => Transaction::from([500 + i, 700 + i]),         // outlier
        });
    }
    let mut image_bytes = Vec::new();
    write_baskets(&mut image_bytes, &db).expect("in-memory write");
    let clean_image = String::from_utf8(image_bytes).expect("numeric baskets are ASCII");

    // --- the "disk" copy is damaged: garbage tokens and torn lines.
    let damage = FaultSpec::none(42).garbage(0.05).truncate(0.03);
    let image = corrupt_baskets(&clean_image, &damage);
    println!(
        "database: {} transactions written, image corrupted at 5% garbage / 3% truncation",
        db.len()
    );

    // --- cluster a clean sample and build the §4.6 labeler from it.
    let theta = 0.4;
    let sample: Vec<Transaction> = db
        .iter()
        .filter(|t| t.items().iter().all(|&i| i < 100))
        .take(40)
        .cloned()
        .collect();
    let rock = Rock::builder().theta(theta).clusters(2).build().expect("valid config");
    let run = rock.cluster(&sample, &Jaccard).expect("finite similarities, no budget");
    let ftheta = (1.0 - theta) / (1.0 + theta);
    let labeler = Labeler::full(&sample, &run.clustering.clusters, theta, ftheta);
    println!("sample clustered into {} clusters", labeler.num_clusters());

    // --- reference: an uninterrupted resilient pass over the same image.
    let config = ResilientConfig {
        retry: RetryPolicy::no_backoff(3),
        max_quarantine: 200,
        quarantine_detail: 4,
        checkpoint_every: 100,
    };
    let reference = label_stream_resilient(
        BufReader::new(image.as_bytes()),
        &labeler,
        &Jaccard,
        &config,
        None,
        |_| {},
        &RunGovernor::unlimited(),
        1,
    )
    .expect("quarantine absorbs the data damage");
    assert!(
        reference.checkpoint.records_quarantined > 0,
        "the corrupted image should force quarantines"
    );

    // --- now the same pass through a reader whose transient-fault bursts
    //     exceed the retry budget: the run is interrupted mid-stream.
    let flaky = FaultSpec::none(42).transient(0.04, 10).chunk(32);
    let err = label_stream_resilient(
        BufReader::new(FaultyReader::new(image.as_bytes(), flaky)),
        &labeler,
        &Jaccard,
        &config,
        None,
        |cp| println!("  checkpoint at byte {} ({} records)", cp.byte_offset, cp.records_read),
        &RunGovernor::unlimited(),
        1,
    )
    .expect_err("burst of 10 against a budget of 3 must interrupt");
    println!("\ninterrupted: {err}");
    println!("salvaged {} assignments; report so far:", err.partial_assignments.len());
    print!("{}", err.report);

    // --- persist the checkpoint as its CRC-framed bytes (as a real
    //     pipeline would) and resume over a healthy reader.
    let persisted = err.checkpoint.encode();
    let resume = Checkpoint::decode(&persisted).expect("checkpoint round-trips");
    // A real pipeline would hand the governor a cancellation token wired
    // to its signal handler, so an operator can stop the pass at a
    // checkpointed line. The resume scores on two threads: checkpoints
    // carry over between thread counts.
    let resumed = label_stream_resilient(
        BufReader::new(image.as_bytes()),
        &labeler,
        &Jaccard,
        &config,
        Some(&resume),
        |_| {},
        &RunGovernor::unlimited(),
        2,
    )
    .expect("resume over a healthy reader completes");
    println!("resumed from byte {} and finished; final report:", resume.byte_offset);
    print!("{}", resumed.report);

    // --- the acceptance criterion: stitched output is bit-identical.
    let mut stitched = err.partial_assignments.clone();
    stitched.extend(resumed.labeling.assignments.iter().copied());
    assert_eq!(
        stitched, reference.labeling.assignments,
        "resumed pass must reproduce the uninterrupted pass exactly"
    );
    assert_eq!(resumed.checkpoint, reference.checkpoint);
    println!(
        "\nOK: {} records labeled ({} outliers, {} quarantined) — resumed run bit-identical",
        resumed.checkpoint.records_read,
        resumed.checkpoint.outliers,
        resumed.checkpoint.records_quarantined
    );
}
