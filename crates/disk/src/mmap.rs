//! A minimal read-only memory map over a whole file.
//!
//! Only what the slab reader needs: map the file, hand out `&[u8]`,
//! unmap on drop. On 64-bit unix this is a real `mmap(2)` call declared
//! directly against the C runtime (the workspace vendors no `libc`
//! crate; the symbols are already linked through `std`). Elsewhere the
//! "map" is an ordinary 8-byte-aligned read of the file — same API,
//! same alignment guarantees, no laziness.

use std::fs::File;
use std::io;

/// A read-only mapping of an entire file.
///
/// Dereferences to the file's bytes. The base address is page-aligned
/// on the mmap path and 8-byte-aligned on the fallback path, so a byte
/// offset that is 8-aligned *in the file* is 8-aligned *in memory*, as
/// every packed column of a `FROZ` section is.
pub struct Mmap {
    inner: Inner,
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    // Declared directly: the workspace vendors no `libc` crate, and these
    // two symbols are in every unix C runtime `std` already links.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

#[cfg(all(unix, target_pointer_width = "64"))]
enum Inner {
    /// A live `mmap(2)` region; unmapped on drop.
    Mapped { ptr: *const u8, len: usize },
    /// Zero-length files cannot be mapped; represented as empty.
    Empty,
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
enum Inner {
    /// Fallback: the whole file read into an 8-byte-aligned buffer.
    Owned { buf: Vec<u64>, len: usize },
}

// SAFETY: the mapping is created PROT_READ and never mutated or remapped
// after construction; sharing immutable bytes across threads is sound.
// (The fallback variant is a plain Vec and would be auto-Send/Sync; the
// raw pointer in the mapped variant is what suppresses the auto impls.)
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(Mmap { inner: Inner::Empty });
        }
        // SAFETY: fd is a valid open file descriptor for `file`, len is
        // its non-zero size, and PROT_READ|MAP_PRIVATE asks for a fresh
        // read-only region chosen by the kernel.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { inner: Inner::Mapped { ptr: ptr as *const u8, len } })
    }

    /// Fallback "map": reads the whole file into an 8-byte-aligned
    /// buffer. Same API and alignment guarantees, no demand paging.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::io::Read;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: a u64 buffer reinterpreted as bytes is always valid.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        let mut r = file;
        r.read_exact(bytes)?;
        Ok(Mmap { inner: Inner::Owned { buf, len } })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: ptr/len describe the live PROT_READ mapping created
            // in `map`, valid until `drop` unmaps it.
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Empty => &[],
            #[cfg(not(all(unix, target_pointer_width = "64")))]
            // SAFETY: the u64 buffer holds at least `len` bytes.
            Inner::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True if the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

// Lets an `Arc<Mmap>` serve as a `hex_dict::packed::SharedBytes`
// provider, so every column opened from the file borrows the mapping.
impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for Mmap {
    fn drop(&mut self) {
        if let Inner::Mapped { ptr, len } = self.inner {
            // SAFETY: exactly the region `map` created, unmapped once.
            unsafe {
                sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents_and_unmaps() {
        let path = std::env::temp_dir().join(format!("hexdisk_mmap_{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        {
            let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
            assert_eq!(map.len(), payload.len());
            assert!(!map.is_empty());
            assert_eq!(&map[..], &payload[..]);
            assert_eq!(map.as_ptr() as usize % 8, 0, "base must be at least 8-aligned");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_as_empty() {
        let path = std::env::temp_dir().join(format!("hexdisk_empty_{}.bin", std::process::id()));
        std::fs::File::create(&path).unwrap();
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
