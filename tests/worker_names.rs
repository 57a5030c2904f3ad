//! Every worker thread of the threaded runtime is named after its pool
//! slot, so a panic message or a thread listing says which worker it was.
#![cfg(target_os = "linux")]

use presp::runtime::registry::BitstreamRegistry;
use presp::runtime::threaded::{RuntimeConfig, ThreadedManager};
use presp::soc::config::SocConfig;
use presp::soc::sim::Soc;
use std::time::{Duration, Instant};

/// The names of this process's threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn each_worker_thread_is_named_after_its_slot() {
    const WORKERS: usize = 8;
    let config = SocConfig::grid_3x3_reconf("worker-names", 2).unwrap();
    let soc = Soc::new(&config).unwrap();
    let manager: ThreadedManager = ThreadedManager::spawn_with(
        soc,
        BitstreamRegistry::new(),
        RuntimeConfig {
            workers: Some(WORKERS),
            ..RuntimeConfig::default()
        },
    );
    let expected: Vec<String> = (0..WORKERS)
        .map(|slot| format!("presp-worker-{slot}"))
        .collect();
    // A new thread names itself once it starts running, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let names = loop {
        let names = thread_names();
        if expected.iter().all(|want| names.contains(want)) || Instant::now() > deadline {
            break names;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    manager.shutdown();
    let mut workers: Vec<&String> = names
        .iter()
        .filter(|name| name.starts_with("presp-worker-"))
        .collect();
    workers.sort_by_key(|name| name["presp-worker-".len()..].parse::<usize>().ok());
    assert_eq!(workers, expected.iter().collect::<Vec<_>>());
}
