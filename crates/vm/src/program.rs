//! Static guest-program structure.
//!
//! A guest program declares its methods, call sites, and allocation sites
//! up front through [`ProgramBuilder`]; the dynamic behaviour is ordinary
//! Rust code driven through `MutatorCtx` (see [`crate::mutator`]). The
//! static declaration is what lets the JIT simulation make the decisions
//! the paper's mechanisms depend on: which methods are hot, which call
//! sites get inlined, which allocation sites receive profiling code, and
//! which package a method belongs to (for ROLP's package filters, §7.3).

/// Index of a method in the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Index of a static call site (a specific `invoke` bytecode in a specific
/// method).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSiteId(pub u32);

/// Index of a static allocation site (a specific `new` bytecode in a
/// specific method).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocSiteId(pub u32);

/// Declared metadata of one guest method.
#[derive(Debug, Clone)]
pub struct MethodDecl {
    /// Fully qualified name, `"package.sub.Class::method"`. The package is
    /// everything before the last `.` segment preceding `::`.
    pub name: String,
    /// Abstract bytecode size; drives inlining and JIT-compile cost.
    pub bytecode_size: u32,
    /// Whether the JIT may inline calls to this method (paper §7.2.1:
    /// small, control-flow-free methods).
    pub inlineable: bool,
}

impl MethodDecl {
    /// The package part of the method name (empty if unqualified).
    pub fn package(&self) -> &str {
        let class_path = self.name.split("::").next().unwrap_or("");
        match class_path.rfind('.') {
            Some(i) => &class_path[..i],
            None => "",
        }
    }
}

/// Declared metadata of one call site.
#[derive(Debug, Clone)]
pub struct CallSiteDecl {
    /// The method containing the call.
    pub caller: MethodId,
    /// Statically known callee for monomorphic sites; `None` for
    /// polymorphic sites (the target is supplied at call time, and the
    /// JIT never inlines them).
    pub callee: Option<MethodId>,
}

/// Declared metadata of one allocation site.
#[derive(Debug, Clone)]
pub struct AllocSiteDecl {
    /// The method containing the `new`.
    pub method: MethodId,
    /// Abstract bytecode index, for display only.
    pub bci: u32,
}

/// An immutable, fully declared guest program.
#[derive(Debug, Default)]
pub struct Program {
    methods: Vec<MethodDecl>,
    call_sites: Vec<CallSiteDecl>,
    alloc_sites: Vec<AllocSiteDecl>,
    /// Call sites grouped by caller (parallel index to `methods`).
    sites_by_caller: Vec<Vec<CallSiteId>>,
    /// Allocation sites grouped by containing method.
    allocs_by_method: Vec<Vec<AllocSiteId>>,
}

impl Program {
    /// Method metadata.
    pub fn method(&self, id: MethodId) -> &MethodDecl {
        &self.methods[id.0 as usize]
    }

    /// Call-site metadata.
    pub fn call_site(&self, id: CallSiteId) -> &CallSiteDecl {
        &self.call_sites[id.0 as usize]
    }

    /// Allocation-site metadata.
    pub fn alloc_site(&self, id: AllocSiteId) -> &AllocSiteDecl {
        &self.alloc_sites[id.0 as usize]
    }

    /// Number of methods.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Number of declared call sites.
    pub fn num_call_sites(&self) -> usize {
        self.call_sites.len()
    }

    /// Number of declared allocation sites.
    pub fn num_alloc_sites(&self) -> usize {
        self.alloc_sites.len()
    }

    /// Call sites whose caller is `m`.
    pub fn call_sites_of(&self, m: MethodId) -> &[CallSiteId] {
        &self.sites_by_caller[m.0 as usize]
    }

    /// Allocation sites contained in `m`.
    pub fn alloc_sites_of(&self, m: MethodId) -> &[AllocSiteId] {
        &self.allocs_by_method[m.0 as usize]
    }

    /// Iterates all method ids.
    pub fn methods(&self) -> impl Iterator<Item = MethodId> {
        (0..self.methods.len() as u32).map(MethodId)
    }

    /// Iterates all call-site ids.
    pub fn call_sites(&self) -> impl Iterator<Item = CallSiteId> {
        (0..self.call_sites.len() as u32).map(CallSiteId)
    }

    /// Iterates all allocation-site ids.
    pub fn alloc_sites(&self) -> impl Iterator<Item = AllocSiteId> {
        (0..self.alloc_sites.len() as u32).map(AllocSiteId)
    }

    /// Whether every stack that can run `m` holds the same call-site
    /// chain. Walks callers from `m`: each method on the way must have
    /// exactly one incoming call site, up to a root (a method no call
    /// site targets). A method with two or more incoming sites, any
    /// polymorphic site in the program, or a cycle answers `false`.
    ///
    /// This reads the *declared* graph, not the calls a workload makes:
    /// a workload may call a site outside its declared caller (Cassandra
    /// calls `cs_write_buf` outside `Memtable::insert`), and such a call
    /// is invisible here.
    pub fn single_call_path(&self, m: MethodId) -> bool {
        if self.call_sites.iter().any(|cs| cs.callee.is_none()) {
            return false;
        }
        let mut visited = vec![false; self.methods.len()];
        let mut current = m;
        loop {
            if std::mem::replace(&mut visited[current.0 as usize], true) {
                return false;
            }
            let mut incoming = self.call_sites.iter().filter(|cs| cs.callee == Some(current));
            match (incoming.next(), incoming.next()) {
                (None, _) => return true,
                (Some(cs), None) => current = cs.caller,
                (Some(_), Some(_)) => return false,
            }
        }
    }
}

/// Builder for [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a method.
    pub fn method(
        &mut self,
        name: impl Into<String>,
        bytecode_size: u32,
        inlineable: bool,
    ) -> MethodId {
        let id = MethodId(self.program.methods.len() as u32);
        self.program.methods.push(MethodDecl { name: name.into(), bytecode_size, inlineable });
        self.program.sites_by_caller.push(Vec::new());
        self.program.allocs_by_method.push(Vec::new());
        id
    }

    /// Declares a monomorphic call site in `caller` targeting `callee`.
    pub fn call_site(&mut self, caller: MethodId, callee: MethodId) -> CallSiteId {
        self.add_call_site(caller, Some(callee))
    }

    /// Declares a polymorphic call site in `caller` (target supplied per
    /// call; never inlined).
    pub fn virtual_call_site(&mut self, caller: MethodId) -> CallSiteId {
        self.add_call_site(caller, None)
    }

    fn add_call_site(&mut self, caller: MethodId, callee: Option<MethodId>) -> CallSiteId {
        let id = CallSiteId(self.program.call_sites.len() as u32);
        self.program.call_sites.push(CallSiteDecl { caller, callee });
        self.program.sites_by_caller[caller.0 as usize].push(id);
        id
    }

    /// Declares an allocation site in `method` at bytecode index `bci`.
    pub fn alloc_site(&mut self, method: MethodId, bci: u32) -> AllocSiteId {
        let id = AllocSiteId(self.program.alloc_sites.len() as u32);
        self.program.alloc_sites.push(AllocSiteDecl { method, bci });
        self.program.allocs_by_method[method.0 as usize].push(id);
        id
    }

    /// Finalizes the program.
    pub fn build(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_indices() {
        let mut b = ProgramBuilder::new();
        let main = b.method("app.Main::run", 200, false);
        let helper = b.method("app.util.Buf::alloc", 12, true);
        let cs = b.call_site(main, helper);
        let vs = b.virtual_call_site(main);
        let s1 = b.alloc_site(helper, 3);
        let s2 = b.alloc_site(main, 40);
        let p = b.build();

        assert_eq!(p.num_methods(), 2);
        assert_eq!(p.call_sites_of(main), &[cs, vs]);
        assert!(p.call_sites_of(helper).is_empty());
        assert_eq!(p.alloc_sites_of(helper), &[s1]);
        assert_eq!(p.alloc_sites_of(main), &[s2]);
        assert_eq!(p.call_site(cs).callee, Some(helper));
        assert_eq!(p.call_site(vs).callee, None);
        assert_eq!(p.alloc_site(s1).bci, 3);
    }

    #[test]
    fn single_call_path_follows_the_declared_callers() {
        // A chain: root -> mid -> leaf.
        let mut b = ProgramBuilder::new();
        let root = b.method("app.Main::run", 100, false);
        let mid = b.method("app.Worker::step", 80, false);
        let leaf = b.method("app.Factory::make", 60, false);
        b.call_site(root, mid);
        b.call_site(mid, leaf);
        let p = b.build();
        assert!(p.single_call_path(leaf));
        assert!(p.single_call_path(mid));
        assert!(p.single_call_path(root), "a root is its own single path");

        // Two callers, like Cassandra's `Buffer::allocate` under `get` and
        // `insert`; a method above the join still has one path.
        let mut b = ProgramBuilder::new();
        let handle = b.method("db.Handler::handle", 100, false);
        let get = b.method("db.Table::get", 80, false);
        let insert = b.method("db.Memtable::insert", 80, false);
        let buf = b.method("db.Buffer::allocate", 60, false);
        b.call_site(handle, get);
        b.call_site(handle, insert);
        b.call_site(get, buf);
        b.call_site(insert, buf);
        let p = b.build();
        assert!(!p.single_call_path(buf));
        assert!(p.single_call_path(insert));

        // Any polymorphic site makes the declared graph incomplete.
        let mut b = ProgramBuilder::new();
        let root = b.method("app.Main::run", 100, false);
        let leaf = b.method("app.Factory::make", 60, false);
        b.call_site(root, leaf);
        b.virtual_call_site(root);
        let p = b.build();
        assert!(!p.single_call_path(leaf));

        // Recursion: leaf's one caller is reached from leaf itself.
        let mut b = ProgramBuilder::new();
        let a = b.method("app.A::walk", 100, false);
        let leaf = b.method("app.B::make", 60, false);
        b.call_site(a, leaf);
        b.call_site(leaf, a);
        let p = b.build();
        assert!(!p.single_call_path(leaf));
        assert!(!p.single_call_path(a));
    }

    #[test]
    fn package_extraction() {
        let m = MethodDecl { name: "a.b.C::m".into(), bytecode_size: 1, inlineable: false };
        assert_eq!(m.package(), "a.b");
        let m2 = MethodDecl { name: "C::m".into(), bytecode_size: 1, inlineable: false };
        assert_eq!(m2.package(), "");
        let m3 = MethodDecl {
            name: "cassandra.db.Memtable::put".into(),
            bytecode_size: 1,
            inlineable: false,
        };
        assert_eq!(m3.package(), "cassandra.db");
    }
}
