//! Reproduction harness: prints the measured version of every table and
//! figure in the skip-webs paper as TSV.
//!
//! ```text
//! repro [experiment] [--full]
//!
//! experiments: table1 fig1 fig2 fig3 fig4 lemma1 lemma4 thm2 updates
//!              buckets ablation chord congestion distributed churn
//!              failover batch wan store rebuild tcp all (default: all)
//! --full: larger size sweeps (slower; used to fill EXPERIMENTS.md)
//! ```

use skipweb_bench::experiments;

struct Config {
    sizes: Vec<usize>,
    trap_sizes: Vec<usize>,
    queries: usize,
    updates: usize,
    bucket_n: usize,
    memories: Vec<usize>,
    dist_hosts: Vec<usize>,
    dist_n: usize,
    dist_clients: usize,
    dist_queries: usize,
    churn_ops: usize,
    failover_hosts: usize,
    failover_ks: Vec<usize>,
    failover_ops: usize,
    batch_sizes: Vec<usize>,
    batch_ops: usize,
    wan_latencies_us: Vec<u64>,
    wan_clients: usize,
    wan_queries: usize,
    store_ns: Vec<usize>,
    store_hosts: usize,
    store_gets: usize,
    rebuild_ns: Vec<usize>,
    rebuild_trap_n: usize,
    rebuild_batches: Vec<usize>,
    rebuild_reps: usize,
    tcp_workers: usize,
    tcp_hosts_per_worker: usize,
    tcp_queries: usize,
    seed: u64,
}

impl Config {
    fn quick() -> Self {
        Config {
            sizes: vec![256, 1024, 4096],
            trap_sizes: vec![32, 64, 128],
            queries: 100,
            updates: 20,
            bucket_n: 4096,
            memories: vec![8, 16, 32, 64, 128, 256],
            dist_hosts: vec![1, 4, 16],
            dist_n: 1024,
            dist_clients: 4,
            dist_queries: 50,
            churn_ops: 300,
            failover_hosts: 8,
            failover_ks: vec![1, 2, 3],
            failover_ops: 200,
            batch_sizes: vec![1, 16, 256],
            batch_ops: 256,
            wan_latencies_us: vec![0, 200, 1000, 3000],
            wan_clients: 4,
            wan_queries: 50,
            store_ns: vec![256, 1024],
            store_hosts: 4,
            store_gets: 100,
            // 1024 and 4096 sit exactly on level-count boundaries (inserts
            // there pay for a whole new top level); 3072 shows the
            // boundary-free cost.
            rebuild_ns: vec![1024, 3072, 4096],
            rebuild_trap_n: 128,
            rebuild_batches: vec![1, 8, 64, 512],
            rebuild_reps: 5,
            tcp_workers: 4,
            tcp_hosts_per_worker: 2,
            tcp_queries: 50,
            seed: 42,
        }
    }

    fn full() -> Self {
        Config {
            sizes: vec![256, 1024, 4096, 16_384, 65_536],
            trap_sizes: vec![32, 64, 128, 256],
            queries: 200,
            updates: 40,
            bucket_n: 16_384,
            memories: vec![8, 16, 32, 64, 128, 256, 1024, 4096],
            dist_hosts: vec![1, 4, 16, 64],
            dist_n: 4096,
            dist_clients: 8,
            dist_queries: 200,
            churn_ops: 2000,
            failover_hosts: 16,
            failover_ks: vec![1, 2, 3],
            failover_ops: 1000,
            batch_sizes: vec![1, 16, 256],
            batch_ops: 1024,
            wan_latencies_us: vec![0, 200, 1000, 3000, 10_000],
            wan_clients: 8,
            wan_queries: 100,
            store_ns: vec![1024, 4096],
            store_hosts: 8,
            store_gets: 400,
            rebuild_ns: vec![3072, 4096, 16_384],
            rebuild_trap_n: 128,
            rebuild_batches: vec![1, 8, 64, 512],
            rebuild_reps: 5,
            tcp_workers: 4,
            tcp_hosts_per_worker: 4,
            tcp_queries: 200,
            seed: 42,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Worker-process re-entry for the TCP deployment experiment: the
    // driver spawns copies of this binary as
    // `repro tcp-host <me> <hosts_per_worker> <n> <seed> <ports_csv>`.
    if args.first().map(String::as_str) == Some("tcp-host") {
        let parse = |i: usize| -> u64 { args[i].parse().expect("tcp-host: numeric argument") };
        let (me, hosts_per_worker, n, seed) = (
            parse(1) as usize,
            parse(2) as usize,
            parse(3) as usize,
            parse(4),
        );
        let ports: Vec<u16> = args[5]
            .split(',')
            .map(|p| p.parse().expect("tcp-host: port list"))
            .collect();
        let bye = experiments::tcp_host(&ports, me, hosts_per_worker, n, seed)
            .expect("tcp-host: joining the deployment");
        std::process::exit(if bye { 0 } else { 1 });
    }

    let full = args.iter().any(|a| a == "--full");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let cfg = if full {
        Config::full()
    } else {
        Config::quick()
    };

    const KNOWN: [&str; 22] = [
        "all",
        "table1",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "lemma1",
        "lemma4",
        "thm2",
        "updates",
        "buckets",
        "ablation",
        "chord",
        "congestion",
        "distributed",
        "churn",
        "failover",
        "batch",
        "wan",
        "store",
        "rebuild",
        "tcp",
    ];
    if !KNOWN.contains(&which.as_str()) {
        eprintln!("unknown experiment {which:?}");
        eprintln!("usage: repro [{}] [--full]", KNOWN.join("|"));
        std::process::exit(2);
    }

    let run = |name: &str| -> bool { which == "all" || which == name };

    if run("table1") {
        println!(
            "{}",
            experiments::table1(&cfg.sizes, cfg.queries, cfg.updates, cfg.seed)
        );
    }
    if run("fig1") {
        println!("{}", experiments::fig1(&cfg.sizes, cfg.seed));
    }
    if run("fig2") {
        println!("{}", experiments::fig2(&cfg.sizes, cfg.seed));
    }
    if run("fig3") {
        println!("{}", experiments::fig3(&cfg.sizes, cfg.seed));
    }
    if run("fig4") {
        println!("{}", experiments::fig4(&cfg.trap_sizes, cfg.seed));
    }
    if run("lemma1") {
        println!("{}", experiments::lemma1(&cfg.sizes, cfg.seed));
    }
    if run("lemma4") {
        println!("{}", experiments::lemma4(&cfg.sizes, cfg.seed));
    }
    if run("thm2") {
        println!(
            "{}",
            experiments::thm2(&cfg.sizes, *cfg.trap_sizes.last().unwrap_or(&128), cfg.seed)
        );
    }
    if run("updates") {
        println!(
            "{}",
            experiments::updates(&cfg.sizes, cfg.updates, cfg.seed)
        );
    }
    if run("buckets") {
        println!(
            "{}",
            experiments::buckets(cfg.bucket_n, &cfg.memories, cfg.seed)
        );
    }
    if run("ablation") {
        println!("{}", experiments::ablation(&cfg.sizes, cfg.seed));
    }
    if run("chord") {
        println!("{}", experiments::chord(&cfg.sizes, cfg.seed));
    }
    if run("congestion") {
        println!(
            "{}",
            experiments::congestion(&cfg.sizes, cfg.queries, cfg.seed)
        );
    }
    if run("distributed") {
        println!(
            "{}",
            experiments::distributed(
                &cfg.dist_hosts,
                cfg.dist_n,
                cfg.dist_clients,
                cfg.dist_queries,
                cfg.seed,
            )
        );
    }
    if run("churn") {
        println!(
            "{}",
            experiments::churn(&cfg.dist_hosts, cfg.dist_n, cfg.churn_ops, cfg.seed)
        );
    }
    if run("failover") {
        println!(
            "{}",
            experiments::failover(
                cfg.failover_hosts,
                cfg.dist_n,
                &cfg.failover_ks,
                cfg.failover_ops,
                cfg.seed,
            )
        );
    }
    if run("batch") {
        println!(
            "{}",
            experiments::batch(
                &cfg.dist_hosts,
                cfg.dist_n,
                &cfg.batch_sizes,
                cfg.batch_ops,
                cfg.seed,
            )
        );
    }
    if run("wan") {
        println!(
            "{}",
            experiments::wan(
                &cfg.wan_latencies_us,
                4,
                cfg.dist_n,
                cfg.wan_clients,
                cfg.wan_queries,
                cfg.seed,
            )
        );
    }
    if run("store") {
        let table = experiments::store(&cfg.store_ns, cfg.store_hosts, cfg.store_gets, cfg.seed);
        // Emitted next to the TSV so the bench-report job (and the
        // committed BENCH_store.json artifact) can pick it up.
        if let Err(e) = std::fs::write("BENCH_store.json", table.to_json("store")) {
            eprintln!("warning: could not write BENCH_store.json: {e}");
        }
        println!("{table}");
    }
    if run("rebuild") {
        let table = experiments::rebuild(
            &cfg.rebuild_ns,
            cfg.rebuild_trap_n,
            &cfg.rebuild_batches,
            cfg.rebuild_reps,
            cfg.seed,
        );
        // Emitted next to the TSV so the bench-report job (and the
        // committed BENCH_rebuild.json artifact) can pick it up.
        if let Err(e) = std::fs::write("BENCH_rebuild.json", table.to_json("rebuild")) {
            eprintln!("warning: could not write BENCH_rebuild.json: {e}");
        }
        println!("{table}");
    }
    // Spawns worker OS processes, so it only runs when named explicitly —
    // never as part of `all`.
    if which == "tcp" {
        let exe = std::env::current_exe().expect("tcp: resolving own binary");
        let table = experiments::tcp(
            &exe,
            cfg.tcp_workers,
            cfg.tcp_hosts_per_worker,
            cfg.dist_n,
            cfg.dist_clients,
            cfg.tcp_queries,
            cfg.seed,
        )
        .expect("tcp: deployment must come up on loopback");
        println!("{table}");
    }
}
