//! `verd` — the Ver view-discovery daemon.
//!
//! Loads a CSV directory into a catalog, builds (or warm-starts from) a
//! discovery index, and serves the `verd` binary protocol on a TCP
//! socket until a `Shutdown` request arrives.
//!
//! ```text
//! verd --data DIR [--index FILE] [--save-index] [--addr HOST:PORT]
//!      [--max-conns N] [--shards N] [--route ADDR,ADDR,...] [--shard-leg]
//!      [--page-size N] [--fast]
//! ```
//!
//! * `--data DIR` — directory of `.csv` files (header row expected),
//!   loaded in sorted filename order so table ids are deterministic
//!   across runs
//! * `--index FILE` — warm-start from this persisted index if it
//!   exists; otherwise cold-build
//! * `--save-index` — after a cold build, persist the index to the
//!   `--index` path for the next start
//! * `--addr HOST:PORT` — bind address (default 127.0.0.1:7117; use port
//!   0 for ephemeral)
//! * `--max-conns N` — connection cap, 0 = uncapped (default 64)
//! * `--shards N` — index shards: 1 = single engine (the default), >1 =
//!   in-process scatter/gather; 0 is refused with the usage message
//! * `--route ADDR,ADDR,...` — router mode: fan each query out over
//!   these remote shard-leg `verd` processes (one address per shard, in
//!   shard order) and merge centrally; `--data`/`--index` still describe
//!   the full catalog, which the router needs for column selection and
//!   the merge tail. Mutually exclusive with `--shards`
//! * `--shard-leg` — marker for a process serving as a remote shard leg
//!   under a router (a plain single-engine `verd`; legs answer
//!   `ShardQuery` requests). Implies `--shards 1`
//! * `--page-size N` — server-side default page size for queries that
//!   don't request one (0 = whole result inline)
//! * `--fast` — the `VerConfig::fast()` profile: the same k = 128
//!   sketches, verified by exact containment, built on one thread

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use ver_core::VerConfig;
use ver_serve::net::{config, Backend, NetConfig, RetryPolicy, Server};
use ver_serve::{RouterEngine, ServeConfig, ServeEngine, ShardedEngine};
use ver_store::catalog::TableCatalog;

struct Args {
    data: Option<String>,
    index: Option<String>,
    save_index: bool,
    addr: Option<String>,
    max_conns: Option<usize>,
    shards: usize,
    route: Option<String>,
    shard_leg: bool,
    page_size: u32,
    fast: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: verd --data DIR [--index FILE] [--save-index] [--addr HOST:PORT] \
         [--max-conns N] [--shards N] [--route ADDR,ADDR,...] [--shard-leg] \
         [--page-size N] [--fast]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        data: None,
        index: None,
        save_index: false,
        addr: None,
        max_conns: None,
        shards: 1,
        route: None,
        shard_leg: false,
        page_size: 0,
        fast: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("verd: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--data" => args.data = Some(value("--data")),
            "--index" => args.index = Some(value("--index")),
            "--save-index" => args.save_index = true,
            "--addr" => args.addr = Some(value("--addr")),
            "--max-conns" => {
                let raw = value("--max-conns");
                args.max_conns = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("verd: bad --max-conns {raw:?}");
                    usage()
                }))
            }
            "--shards" => {
                let raw = value("--shards");
                args.shards = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("verd: bad --shards {raw:?} (want at least 1)");
                        usage()
                    })
            }
            "--route" => args.route = Some(value("--route")),
            "--shard-leg" => args.shard_leg = true,
            "--page-size" => {
                let raw = value("--page-size");
                args.page_size = raw.parse().unwrap_or_else(|_| {
                    eprintln!("verd: bad --page-size {raw:?}");
                    usage()
                })
            }
            "--fast" => args.fast = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("verd: unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

/// Load every `*.csv` under `dir` (sorted by filename, so `TableId`
/// assignment — and therefore every query result — is deterministic
/// across starts).
fn load_catalog(dir: &str) -> ver_common::error::Result<TableCatalog> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(ver_common::error::VerError::InvalidData(format!(
            "no .csv files under {dir}"
        )));
    }
    let mut catalog = TableCatalog::new();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table")
            .to_string();
        let file = std::fs::File::open(&path)?;
        let table = ver_store::csv::read_csv(&name, std::io::BufReader::new(file), true)?;
        catalog.add_table(table)?;
    }
    Ok(catalog)
}

/// Parse `--route`'s comma-separated shard-leg addresses. One address per
/// shard, in shard order; order decides which slice of the column space
/// each leg is asked to cover.
fn parse_route(raw: &str) -> Vec<SocketAddr> {
    let mut addrs = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match config::parse_addr(part) {
            Some(a) => addrs.push(a),
            None => {
                eprintln!("verd: bad --route address {part:?}");
                usage();
            }
        }
    }
    if addrs.is_empty() {
        eprintln!("verd: --route needs at least one HOST:PORT address");
        usage();
    }
    addrs
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(data) = args.data.as_deref() else {
        eprintln!("verd: --data is required");
        usage();
    };
    if args.route.is_some() && args.shards != 1 {
        eprintln!("verd: --route and --shards are mutually exclusive");
        usage();
    }
    if args.shard_leg && (args.route.is_some() || args.shards != 1) {
        eprintln!("verd: --shard-leg is a plain single-engine verd (no --route / --shards)");
        usage();
    }

    let catalog = match load_catalog(data) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("verd: loading {data}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "verd: catalog loaded: {} tables, {} columns",
        catalog.table_count(),
        catalog.column_count()
    );

    let serve_config = ServeConfig {
        pipeline: if args.fast {
            VerConfig::fast()
        } else {
            VerConfig::default()
        },
        ..ServeConfig::default()
    };

    // One load-or-build-then-save for every backend shape: each of them
    // (the router included — it runs column selection itself and merges
    // the legs' outputs centrally) serves the full catalog + index.
    let index_path = args.index.as_deref().map(std::path::Path::new);
    let warm_path = index_path.filter(|p| p.exists());
    let index = match warm_path {
        Some(p) => ver_index::persist::load_index(p),
        None => ver_index::build_index(&catalog, serve_config.pipeline.index.clone()),
    };
    let index = match index {
        Ok(index) => Arc::new(index),
        Err(e) => {
            eprintln!("verd: building index: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let (None, true, Some(p)) = (warm_path, args.save_index, index_path) {
        match ver_index::persist::save_index(&index, p) {
            Ok(()) => eprintln!("verd: index saved to {}", p.display()),
            Err(e) => eprintln!("verd: saving index: {e} (serving anyway)"),
        }
    }

    let catalog = Arc::new(catalog);
    let backend = if let Some(route) = args.route.as_deref() {
        let addrs = parse_route(route);
        RouterEngine::warm_start(catalog, index, serve_config, &addrs, RetryPolicy::default()).map(
            |router| {
                eprintln!("verd: router backend: {} remote legs", router.shard_count());
                for leg in router.leg_stats() {
                    eprintln!("verd:   leg {}", leg.addr);
                }
                Backend::Router(Arc::new(router))
            },
        )
    } else if args.shards == 1 {
        ServeEngine::warm_start(catalog, index, serve_config).map(|engine| {
            if args.shard_leg {
                eprintln!("verd: serving as a shard leg (answers ShardQuery)");
            }
            Backend::Single(Arc::new(engine))
        })
    } else {
        ShardedEngine::warm_start(catalog, index, serve_config, args.shards).map(|engine| {
            eprintln!("verd: sharded backend: {} shards", engine.shard_count());
            Backend::Sharded(Arc::new(engine))
        })
    };
    let backend = match backend {
        Ok(backend) => backend,
        Err(e) => {
            eprintln!("verd: building engine: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "verd: engine ready ({})",
        if warm_path.is_some() {
            "warm start"
        } else {
            "cold build"
        }
    );

    let mut net = NetConfig::default();
    if let Some(raw) = args.addr.as_deref() {
        match config::parse_addr(raw) {
            Some(a) => net.addr = a,
            None => {
                eprintln!("verd: bad --addr {raw:?}");
                usage();
            }
        }
    }
    if let Some(n) = args.max_conns {
        net.max_conns = n;
    }
    net.default_page_size = args.page_size;

    let server = match Server::bind(backend, net) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("verd: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // stdout, and flushed: harnesses parse this line for the ephemeral port.
    println!("verd listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(()) => {
            eprintln!("verd: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("verd: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
