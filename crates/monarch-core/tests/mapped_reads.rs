//! Small reads of a cached file are copied out of a mapping of it. A page
//! that cannot be read raises `SIGBUS` there, where `pread` returns `EIO`;
//! the driver's guard turns a fault inside a mapped copy back into `EIO`
//! and leaves every other `SIGBUS` to whoever handled it before.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::ffi::c_void;
use std::io::Read;
use std::os::unix::io::AsRawFd;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use monarch_core::config::PolicyKind;
use monarch_core::driver::PosixDriver;
use monarch_core::{Error, MonarchBuilder, StorageDriver, StorageHierarchy};

const SIZE: usize = 64 << 10;
/// The directory the child of
/// [`a_sigbus_outside_a_mapped_copy_is_not_swallowed`] works in.
const CHILD: &str = "MONARCH_MAPPED_READS_CHILD";

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("monarch-mapped-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn contents(seed: u8) -> Vec<u8> {
    (0..SIZE).map(|at| (at * 7) as u8 ^ seed).collect()
}

/// Mappings of this process of files under `root`.
fn mapped_under(root: &Path) -> usize {
    let root = root.to_str().unwrap();
    std::fs::read_to_string("/proc/self/maps")
        .unwrap()
        .lines()
        .filter(|line| line.contains(root))
        .count()
}

/// Descriptors of this process open on files under `root`.
fn open_under(root: &Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.starts_with(root))
        .count()
}

/// Cut `path` to nothing underneath whoever has it open or mapped.
fn truncate(path: &Path) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(0)
        .unwrap();
}

#[test]
fn a_mapped_read_of_a_truncated_file_fails_with_eio_and_reopens() {
    let root = scratch("eio");
    let d = PosixDriver::new("p", &root).unwrap();
    d.write_full("f", &contents(1)).unwrap();
    let mut buf = vec![0u8; 4096];
    // The first read opens and caches the file; the second maps it.
    for _ in 0..2 {
        assert_eq!(d.read_at("f", 8192, &mut buf).unwrap(), 4096);
        assert_eq!(buf[..], contents(1)[8192..][..4096]);
    }
    assert_eq!(mapped_under(&root), 1);
    truncate(&root.join("f"));
    match d.read_at("f", 8192, &mut buf) {
        Err(Error::Io(e)) => assert_eq!(e.raw_os_error(), Some(5), "{e}"),
        other => panic!("read of a truncated mapping: {other:?}"),
    }
    // The entry is forgotten: descriptor closed, mapping gone.
    assert_eq!((open_under(&root), mapped_under(&root)), (0, 0));
    // The next read opens the file again and finds it empty.
    assert_eq!(d.read_at("f", 8192, &mut buf).unwrap(), 0);
    assert_eq!(open_under(&root), 1);
    // A new install is read — and mapped — as usual.
    d.write_full("f", &contents(2)).unwrap();
    for _ in 0..2 {
        assert_eq!(d.read_at("f", 0, &mut buf).unwrap(), 4096);
        assert_eq!(buf[..], contents(2)[..4096]);
    }
    assert_eq!(mapped_under(&root), 1);
    drop(d);
    assert_eq!((open_under(&root), mapped_under(&root)), (0, 0));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A fast-tier copy cut short underneath is never served short: the read
/// that faults on its mapping, and every read after it, falls back to the
/// PFS and is booked as degraded.
#[test]
fn a_truncated_local_copy_is_read_from_the_source() {
    const FILES: usize = 4;
    let root = scratch("fallback");
    let pfs = PosixDriver::new("pfs", root.join("pfs")).unwrap();
    for i in 0..FILES {
        pfs.write_full(&format!("f{i}"), &contents(i as u8))
            .unwrap();
    }
    let fast = PosixDriver::new("fast", root.join("fast")).unwrap();
    let hierarchy = StorageHierarchy::new(vec![
        (
            "fast".into(),
            Arc::new(fast) as Arc<dyn StorageDriver>,
            Some(u64::MAX / 2),
        ),
        ("pfs".into(), Arc::new(pfs), None),
    ])
    .unwrap();
    let m = MonarchBuilder::new()
        .hierarchy(hierarchy)
        .policy(PolicyKind::FirstFit)
        .pool_threads(1)
        .build()
        .unwrap();
    m.init().unwrap();
    m.prestage();
    m.wait_placement_idle();
    let mut buf = vec![0u8; 4096];
    // Warm: every file cached and mapped by the fast tier's driver.
    for i in 0..FILES {
        for _ in 0..2 {
            assert_eq!(m.read(&format!("f{i}"), 0, &mut buf).unwrap(), 4096);
        }
    }
    assert_eq!(mapped_under(&root.join("fast")), FILES);
    assert_eq!(m.stats().degraded_reads, 0);
    truncate(&root.join("fast").join("f0"));
    for i in 0..FILES {
        let expected = contents(i as u8);
        for chunk in 0..SIZE / 4096 {
            let offset = chunk * 4096;
            let n = m
                .read(&format!("f{i}"), offset as u64, &mut buf)
                .unwrap_or_else(|e| panic!("f{i} at {offset}: {e}"));
            assert_eq!(n, 4096, "f{i} at {offset}: a short read");
            assert!(
                buf[..] == expected[offset..][..4096],
                "f{i} at {offset}: wrong bytes"
            );
        }
    }
    assert!(m.stats().degraded_reads >= 1);
    m.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// With the guard installed, a `SIGBUS` on a mapping the driver did not
/// make still ends the process. The test runs itself again as a child that
/// maps a file, truncates it and reads it.
#[test]
fn a_sigbus_outside_a_mapped_copy_is_not_swallowed() {
    if let Some(root) = std::env::var_os(CHILD) {
        fault_outside_a_mapped_copy(Path::new(&root));
    }
    let root = scratch("child");
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_sigbus_outside_a_mapped_copy_is_not_swallowed",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, &root)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // A handler that returned from the fault without fixing it would have
    // the child fault forever.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            break child.wait().unwrap();
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        stdout.contains("faulting"),
        "the child never faulted: {stdout}"
    );
    assert_eq!(status.signal(), Some(7), "child: {status:?}");
}

fn fault_outside_a_mapped_copy(root: &Path) {
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn setrlimit(resource: i32, rlim: *const [u64; 2]) -> i32;
    }
    const RLIMIT_CORE: i32 = 4;
    // SAFETY: a valid `struct rlimit`; the child leaves no core file.
    unsafe { setrlimit(RLIMIT_CORE, &[0, 0]) };
    let d = PosixDriver::new("p", root).unwrap();
    d.write_full("f", &contents(3)).unwrap();
    let mut buf = vec![0u8; 4096];
    // Installs the guard.
    for _ in 0..2 {
        d.read_at("f", 0, &mut buf).unwrap();
    }
    let path = root.join("own");
    std::fs::write(&path, contents(4)).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    // SAFETY: a fresh read-only shared mapping (`PROT_READ`, `MAP_SHARED`)
    // of an open file; the kernel picks the address.
    let base = unsafe { mmap(std::ptr::null_mut(), SIZE, 1, 1, file.as_raw_fd(), 0) };
    assert_ne!(base as usize, usize::MAX, "mmap failed");
    truncate(&path);
    println!("faulting");
    // SAFETY: inside the mapping; the page is past the end of the file
    // now, so this load raises `SIGBUS`, which must end the process.
    let byte = unsafe { std::ptr::read_volatile(base.cast::<u8>().add(8192)) };
    panic!("read {byte} from a truncated mapping");
}
