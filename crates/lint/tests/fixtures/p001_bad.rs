//! P001 fixture: panic-capable sites reachable from the entry fire with
//! an entry → … → site chain, also through a fn passed by name;
//! unreachable ones stay silent, and a local that shares a fn's name is
//! no reference to it.
pub struct Framework;
impl Framework {
    pub fn heal(&mut self) {
        helper();
        let _next: Vec<u32> = [1u32].iter().copied().map(passed).collect();
        let off_path = 0u32;
        std::hint::black_box(off_path);
        bound(Some(1));
    }
}
fn helper() {
    deep();
}
fn deep() {
    let v: Option<u32> = None;
    v.unwrap();
}
fn passed(x: u32) -> u32 {
    x.checked_sub(1).unwrap()
}
fn bound(v: Option<u32>) {
    if let Some(off_path) = v {
        std::hint::black_box(off_path);
    }
}
pub fn off_path() {
    let v: Option<u32> = None;
    v.unwrap();
}
