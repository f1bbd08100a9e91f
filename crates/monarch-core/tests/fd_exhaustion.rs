//! `PosixDriver` when the process runs out of descriptors. Alone in its
//! binary: it lowers `RLIMIT_NOFILE` for the whole process.
#![cfg(target_os = "linux")]

use monarch_core::driver::PosixDriver;
use monarch_core::StorageDriver;

/// `struct rlimit` on 64-bit Linux.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

fn nofile() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` for the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile(lim: &RLimit) {
    // SAFETY: `lim` is a live, initialised `struct rlimit` for the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, lim) }, 0);
}

#[test]
fn running_out_of_descriptors_degrades_to_uncached_reads() {
    const FILES: usize = 300; // fewer than the cache would hold
    const HEADROOM: u64 = 40; // far fewer descriptors than files
    let root = std::env::temp_dir().join(format!("monarch-emfile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let d = PosixDriver::new("p", &root).unwrap();
    for i in 0..FILES {
        d.write_full(&format!("f{i}"), &[i as u8; 8]).unwrap();
    }
    let open_now = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    let before = nofile();
    set_nofile(&RLimit {
        cur: open_now + HEADROOM,
        max: before.max,
    });
    // Caching every file would take 300 descriptors and only 40 exist, so
    // these reads can all succeed only by giving the cache back when an
    // open reports `EMFILE` and serving that read uncached.
    let mut failed = Vec::new();
    for pass in 0..2 {
        for i in 0..FILES {
            let mut buf = [0u8; 8];
            match d.read_at(&format!("f{i}"), 0, &mut buf) {
                Ok(8) if buf == [i as u8; 8] => {}
                other => failed.push((pass, i, format!("{other:?}"))),
            }
        }
    }
    set_nofile(&before);
    assert!(failed.is_empty(), "reads failed under EMFILE: {failed:?}");
    std::fs::remove_dir_all(&root).unwrap();
}
