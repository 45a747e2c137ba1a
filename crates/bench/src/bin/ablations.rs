//! Ablation studies of the design choices the paper discusses:
//!
//! * §6.6 — the procrastination interval (a sweep around the 8 ms / 5 ms the
//!   paper chose empirically), and the [SIVA93] "first write as the latency
//!   device" alternative.
//! * §6.7 — FIFO vs LIFO reply ordering.
//! * §6.5 — the mbuf hunter (socket-buffer scan) on and off.
//! * "dangerous mode" — what asynchronous writes would buy, and what they cost
//!   in un-committed data.
//!
//! ```text
//! cargo run --release -p wg-bench --bin ablations
//! cargo run --release -p wg-bench --bin ablations -- --file-mb 2
//! ```

use wg_bench::cli;
use wg_server::{ReplyOrder, ServerConfig, WritePolicy};
use wg_simcore::Duration;
use wg_workload::{ExperimentConfig, FileCopyResult, FileCopySystem, NetworkKind};

fn run_customized(
    config: ExperimentConfig,
    customize: impl FnOnce(&mut ServerConfig),
) -> FileCopyResult {
    FileCopySystem::new_customized(config, customize).run()
}

const USAGE: &str = "\
usage: ablations [--file-mb N]
       ablations --help

  --file-mb N   size of each copy in MB (default 4)";

fn main() {
    let file_mb: u64 = cli::parse_or_exit("ablations", USAGE, |args| {
        let mut file_mb = 4;
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--file-mb" => file_mb = args.number(&flag)?,
                other => return Err(cli::unknown(other)),
            }
        }
        Ok(file_mb)
    });
    let file = file_mb * 1024 * 1024;
    let biods = 7;

    println!("== Write policy comparison (FDDI, {biods} biods, {file_mb} MB copy, single RZ26) ==");
    println!(
        "{:<26} {:>14} {:>12} {:>14}",
        "policy", "client KB/s", "cpu %", "disk trans/s"
    );
    for (name, policy) in [
        ("standard", WritePolicy::Standard),
        ("gathering (paper)", WritePolicy::Gathering),
        ("first-write latency", WritePolicy::FirstWriteLatency),
        ("dangerous async", WritePolicy::DangerousAsync),
    ] {
        let r = run_customized(
            ExperimentConfig::new(NetworkKind::Fddi, biods, policy).with_file_size(file),
            |_| {},
        );
        println!(
            "{name:<26} {:>14.0} {:>12.1} {:>14.1}",
            r.client_write_kb_per_sec, r.server_cpu_percent, r.disk_trans_per_sec
        );
    }

    println!("\n== Procrastination interval sweep (FDDI, {biods} biods, gathering): §6.6 ==");
    println!(
        "{:<26} {:>14} {:>12} {:>14} {:>16}",
        "interval", "client KB/s", "cpu %", "disk trans/s", "mean batch size"
    );
    for ms in [0u64, 1, 2, 5, 8, 12, 20] {
        let r = run_customized(
            ExperimentConfig::new(NetworkKind::Fddi, biods, WritePolicy::Gathering)
                .with_file_size(file),
            |cfg| cfg.procrastination = Duration::from_millis(ms),
        );
        println!(
            "{:<26} {:>14.0} {:>12.1} {:>14.1} {:>16.1}",
            format!("{ms} ms"),
            r.client_write_kb_per_sec,
            r.server_cpu_percent,
            r.disk_trans_per_sec,
            r.mean_batch_size
        );
    }

    println!("\n== Reply ordering (FDDI, {biods} biods, gathering): §6.7 ==");
    for order in [ReplyOrder::Fifo, ReplyOrder::Lifo] {
        let r = run_customized(
            ExperimentConfig::new(NetworkKind::Fddi, biods, WritePolicy::Gathering)
                .with_file_size(file),
            |cfg| cfg.reply_order = order,
        );
        println!(
            "{:<26} {:>14.0} KB/s  (elapsed {:.2} s)",
            format!("{order:?}"),
            r.client_write_kb_per_sec,
            r.elapsed_secs
        );
    }

    println!("\n== Mbuf hunter (Ethernet + Presto, {biods} biods, gathering): §6.5 ==");
    for hunter in [true, false] {
        let r = run_customized(
            ExperimentConfig::new(NetworkKind::Ethernet, biods, WritePolicy::Gathering)
                .with_presto(true)
                .with_file_size(file),
            |cfg| cfg.mbuf_hunter = hunter,
        );
        println!(
            "{:<26} {:>14.0} KB/s at {:>5.1}% CPU, mean batch {:.1}",
            if hunter {
                "mbuf hunter on"
            } else {
                "mbuf hunter off"
            },
            r.client_write_kb_per_sec,
            r.server_cpu_percent,
            r.mean_batch_size
        );
    }

    println!("\n== Number of nfsds (FDDI, 15 biods, gathering): §6.1 scaling claim ==");
    for nfsds in [1usize, 2, 4, 8, 16] {
        let mut cfg = ExperimentConfig::new(NetworkKind::Fddi, 15, WritePolicy::Gathering)
            .with_file_size(file);
        cfg.nfsds = nfsds;
        let r = run_customized(cfg, |_| {});
        println!(
            "{:<26} {:>14.0} KB/s, mean batch {:.1}",
            format!("{nfsds} nfsds"),
            r.client_write_kb_per_sec,
            r.mean_batch_size
        );
    }
}
