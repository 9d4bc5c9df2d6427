//! Corporate Benefits Sample — the MSDN 3-tier client/server application.
//!
//! A synthetic reconstruction of the sample the paper analyzes: a small
//! Visual-Basic front end (GUI forms), a C++ middle tier of business-logic
//! components — many of which **cache results for the client** — and a
//! database reached through ODBC (a proprietary connection Coign cannot
//! analyze, so the driver is pinned to the server by its DATABASE import).
//!
//! The experiment's punchline (Figure 6): the programmer put all middle-tier
//! classes on the middle tier; Coign discovers that the caching components
//! talk overwhelmingly to the client and moves them there, cutting
//! communication ~35 % — without violating security, because the business
//! logic itself stays put.

use crate::common::{
    blob_of, call, fingerprint_of, i4_of, iface_of, register_gui_class, work, GuiSpec, WIDGET_BUILD,
};
use coign::application::Application;
use coign::constraints::NamedConstraint;
use coign_com::idl::{InterfaceBuilder, InterfaceDesc};
use coign_com::{
    ApiImports, AppImage, CallCtx, Clsid, ComError, ComObject, ComResult, ComRuntime, Iid,
    InterfacePtr, MachineId, Message, PType, Value,
};
use parking_lot::Mutex;
use std::sync::{Arc, LazyLock};

/// Queries the client form sends each result cache.
pub const CACHE_QUERIES: i32 = 6;
/// Direct (uncached) status queries the form sends each manager — the
/// irreducible client↔middle-tier traffic that remains after Coign moves
/// the caches.
pub const MANAGER_STATUS_QUERIES: i32 = 25;
/// Benefit rows per employee.
pub const BENEFITS_PER_EMPLOYEE: i32 = 25;
/// Dependents per employee.
pub const DEPENDENTS_PER_EMPLOYEE: i32 = 10;
/// Result caches created per benefits view (grouping benefit rows).
pub const BENEFIT_CACHES: i32 = 10;
/// Result caches created per dependents view.
pub const DEPENDENT_CACHES: i32 = 5;

/// `IOdbc`: the database driver (pinned to the server).
fn iodbc() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IOdbc")
            .method("Exec", |m| {
                m.input("sql", PType::Str).output("rows", PType::Blob)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IManager`: the middle-tier business-logic entry points.
fn imanager() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IManager")
            .method("Load", |m| {
                m.input("employee", PType::I4).output(
                    "caches",
                    PType::Array(Box::new(PType::Interface(Iid::from_name("ICache")))),
                )
            })
            .method("Mutate", |m| {
                m.input("employee", PType::I4)
                    .input("fields", PType::Blob)
                    .output("status", PType::I4)
            })
            .method("Status", |m| {
                m.input("key", PType::I4).output("value", PType::Blob)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `ICache`: a client-facing result cache. `Fill` is the one mutation;
/// the paging queries afterwards only read the cached rows.
fn icache() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("ICache")
            .method("Fill", |m| m.input("rows", PType::Blob).mutates_state())
            .method("Get", |m| {
                m.input("key", PType::I4)
                    .output("value", PType::Blob)
                    .reads_state()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IRecord`: a row-backed business object (stays on the middle tier).
/// Cross-checks read the database; the record itself never changes.
fn irecord() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IRecord")
            .method("Init", |m| {
                m.input("driver", PType::Interface(Iid::from_name("IOdbc")))
                    .input("row", PType::Blob)
                    .reads_state()
            })
            .method("Validate", |m| m.output("ok", PType::I4).pure())
            .build()
    });
    Arc::clone(&DESC)
}

/// `IValidator`: field validation (rule tables from the database).
fn ivalidator() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IValidator")
            .method("Init", |m| {
                m.input("driver", PType::Interface(Iid::from_name("IOdbc")))
                    .mutates_state()
            })
            .method("Check", |m| {
                m.input("field", PType::Blob)
                    .output("ok", PType::I4)
                    .reads_state()
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// `IReport`: chart/report generation.
fn ireport() -> Arc<InterfaceDesc> {
    static DESC: LazyLock<Arc<InterfaceDesc>> = LazyLock::new(|| {
        InterfaceBuilder::new("IReport")
            .method("Render", |m| {
                m.input("driver", PType::Interface(Iid::from_name("IOdbc")))
                    .input("kind", PType::I4)
                    .output("chart", PType::Blob)
            })
            .build()
    });
    Arc::clone(&DESC)
}

/// The ODBC driver: serves row data; DATABASE import pins it to the server.
struct OdbcDriver;

impl ComObject for OdbcDriver {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        if method != 0 {
            return Err(ComError::App(format!("IOdbc has no method {method}")));
        }
        work(ctx, 50);
        let sql = msg.arg(0).and_then(Value::as_str).unwrap_or("");
        let rows = match sql {
            s if s.starts_with("select-employee") => 8_000,
            s if s.starts_with("select-benefits") => 24_000,
            s if s.starts_with("select-dependents") => 12_000,
            s if s.starts_with("select-rules") => 50_000,
            s if s.starts_with("select-report") => 180_000,
            _ => 2_000,
        };
        msg.set(1, Value::Blob(rows));
        Ok(())
    }
}

/// A result cache: filled once by its manager, then queried repeatedly by
/// the client forms — the components Coign moves to the client.
struct ResultCache {
    rows: Mutex<u64>,
}

impl ComObject for ResultCache {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                *self.rows.lock() = blob_of(msg, 0);
                work(ctx, 10);
                Ok(())
            }
            1 => {
                work(ctx, 2);
                msg.set(1, Value::Blob(150));
                Ok(())
            }
            _ => Err(ComError::App(format!("ICache has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&*self.rows.lock())
    }
}

/// A row-backed business object: heavy traffic with the driver.
struct Record;

impl ComObject for Record {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                let driver = iface_of(msg, 0)?;
                // Cross-check against the database (foreign keys + history).
                for sql in ["select-xref", "select-hist"] {
                    let mut check = Message::new(vec![Value::Str(sql.into()), Value::Null]);
                    driver.call(ctx.rt(), 0, &mut check)?;
                }
                work(ctx, 15);
                Ok(())
            }
            1 => {
                work(ctx, 5);
                msg.set(0, Value::I4(1));
                Ok(())
            }
            _ => Err(ComError::App(format!("IRecord has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&0u64) // row snapshot, fixed at creation
    }
}

/// Field validator: pulls rule tables once, then answers client checks.
struct Validator {
    rules: Mutex<u64>,
}

impl ComObject for Validator {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        match method {
            0 => {
                let driver = iface_of(msg, 0)?;
                let mut pull = Message::new(vec![Value::Str("select-rules".into()), Value::Null]);
                driver.call(ctx.rt(), 0, &mut pull)?;
                *self.rules.lock() = blob_of(&pull, 1);
                work(ctx, 30);
                Ok(())
            }
            1 => {
                work(ctx, 4);
                msg.set(1, Value::I4(1));
                Ok(())
            }
            _ => Err(ComError::App(format!("IValidator has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&*self.rules.lock())
    }
}

/// Report engine: renders charts from database aggregates.
struct ReportEngine;

impl ComObject for ReportEngine {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        if method != 0 {
            return Err(ComError::App(format!("IReport has no method {method}")));
        }
        let driver = iface_of(msg, 0)?;
        let mut pull = Message::new(vec![Value::Str("select-report".into()), Value::Null]);
        driver.call(ctx.rt(), 0, &mut pull)?;
        work(ctx, 120);
        // The rendered chart image handed to the client.
        msg.set(2, Value::Blob(60_000));
        Ok(())
    }
}

/// A middle-tier manager: loads records from the database, builds records
/// and result caches.
struct Manager {
    /// Which entity this manager serves (drives row counts).
    entity: &'static str,
    /// The database connection, opened on first use.
    driver: Mutex<Option<InterfacePtr>>,
}

impl ComObject for Manager {
    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        _iid: Iid,
        method: u32,
        msg: &mut Message,
    ) -> ComResult<()> {
        let rt = ctx.rt();
        match method {
            0 => {
                let employee = i4_of(msg, 0);
                let driver =
                    ctx.create(Clsid::from_name("BenOdbcDriver"), Iid::from_name("IOdbc"))?;
                *self.driver.lock() = Some(driver.clone());
                let (records, caches) = match self.entity {
                    "benefits" => (BENEFITS_PER_EMPLOYEE, BENEFIT_CACHES),
                    "dependents" => (DEPENDENTS_PER_EMPLOYEE, DEPENDENT_CACHES),
                    _ => (1, 2),
                };
                // Main query plus permission and row-count checks.
                for sql in ["select", "perms", "count"] {
                    let mut query = Message::new(vec![
                        Value::Str(format!("{sql}-{} {employee}", self.entity)),
                        Value::Null,
                    ]);
                    driver.call(rt, 0, &mut query)?;
                }
                for _ in 0..records {
                    let record =
                        ctx.create(Clsid::from_name("BenRecord"), Iid::from_name("IRecord"))?;
                    let mut init = Message::new(vec![
                        Value::Interface(Some(driver.clone())),
                        Value::Blob(900),
                    ]);
                    record.call(rt, 0, &mut init)?;
                }
                // The client-facing caches, all returned to the caller.
                let mut cache_ptrs = Vec::new();
                for _ in 0..caches {
                    let cache =
                        ctx.create(Clsid::from_name("BenResultCache"), Iid::from_name("ICache"))?;
                    let mut fill = Message::new(vec![Value::Blob(4_000)]);
                    cache.call(rt, 0, &mut fill)?;
                    cache_ptrs.push(Value::Interface(Some(cache)));
                }
                work(ctx, 60);
                msg.set(1, Value::Array(cache_ptrs));
                Ok(())
            }
            1 => {
                let driver =
                    ctx.create(Clsid::from_name("BenOdbcDriver"), Iid::from_name("IOdbc"))?;
                let mut update = Message::new(vec![
                    Value::Str(format!("update-{}", self.entity)),
                    Value::Null,
                ]);
                driver.call(rt, 0, &mut update)?;
                work(ctx, 40);
                msg.set(2, Value::I4(1));
                Ok(())
            }
            2 => {
                // Live status fields always hit the database — they cannot
                // be cached, so this traffic is irreducible no matter where
                // the manager sits.
                let driver = self.driver.lock().clone();
                let driver = match driver {
                    Some(d) => d,
                    None => {
                        let d =
                            ctx.create(Clsid::from_name("BenOdbcDriver"), Iid::from_name("IOdbc"))?;
                        *self.driver.lock() = Some(d.clone());
                        d
                    }
                };
                let mut q = Message::new(vec![Value::Str("select-status".into()), Value::Null]);
                driver.call(rt, 0, &mut q)?;
                work(ctx, 3);
                msg.set(1, Value::Blob(120));
                Ok(())
            }
            _ => Err(ComError::App(format!("IManager has no method {method}"))),
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        fingerprint_of(&(self.entity, self.driver.lock().is_some()))
    }
}

/// Registers the small Visual-Basic-style front end.
fn register_gui(rt: &ComRuntime) {
    for form in [
        "BenUiLogonForm",
        "BenUiNavBar",
        "BenUiStatusBar",
        "BenUiChartView",
    ] {
        register_gui_class(
            rt,
            form,
            GuiSpec {
                notify_parent: 1,
                build_cost_us: 5,
                paint_cost_us: 3,
                ..GuiSpec::default()
            },
        );
    }
    register_gui_class(
        rt,
        "BenUiBenefitsGrid",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 6,
            paint_cost_us: 4,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "BenUiDependentsGrid",
        GuiSpec {
            notify_parent: 1,
            build_cost_us: 4,
            paint_cost_us: 3,
            ..GuiSpec::default()
        },
    );
    register_gui_class(
        rt,
        "BenUiEmployeeForm",
        GuiSpec {
            children: vec![
                ("BenUiLogonForm", 1),
                ("BenUiNavBar", 1),
                ("BenUiStatusBar", 1),
                ("BenUiBenefitsGrid", 1),
                ("BenUiDependentsGrid", 1),
                ("BenUiChartView", 1),
            ],
            build_cost_us: 12,
            paint_cost_us: 6,
            ..GuiSpec::default()
        },
    );
}

/// The Corporate Benefits application.
///
/// "As shipped, Benefits can be distributed as either a 2-tier or a 3-tier
/// client-server application" (§4.3). The default is the 3-tier split the
/// paper analyzes; [`Benefits::two_tier`] gives the 2-tier variant, where
/// the business logic ships on the client and only the database lives
/// remotely.
#[derive(Debug, Default)]
pub struct Benefits {
    two_tier: bool,
}

impl Benefits {
    /// The 2-tier shipped configuration: Visual Basic front end *and*
    /// business logic on the client, database on the server.
    pub fn two_tier() -> Self {
        Benefits { two_tier: true }
    }

    /// The 3-tier shipped configuration (the paper's analysis target).
    pub fn three_tier() -> Self {
        Benefits { two_tier: false }
    }
}

/// Benefits' Table 1 scenarios.
pub const SCENARIOS: [&str; 4] = ["b_vueone", "b_addone", "b_delone", "b_bigone"];

impl Benefits {
    fn view_employee(&self, rt: &ComRuntime, employee: i32) -> ComResult<()> {
        for entity in ["employee", "benefits", "dependents"] {
            let manager = rt.create_instance(
                Clsid::from_name(match entity {
                    "benefits" => "BenBenefitsManager",
                    "dependents" => "BenDependentsManager",
                    _ => "BenEmployeeManager",
                }),
                Iid::from_name("IManager"),
            )?;
            let load = call(rt, &manager, 0, vec![Value::I4(employee), Value::Null])?;
            let caches: Vec<_> = match load.arg(1) {
                Some(Value::Array(items)) => items
                    .iter()
                    .filter_map(|v| v.as_interface().cloned())
                    .collect(),
                _ => Vec::new(),
            };
            // The form pages through every cached result set.
            for cache in &caches {
                for key in 0..CACHE_QUERIES {
                    call(rt, cache, 1, vec![Value::I4(key), Value::Null])?;
                }
            }
            // Live status fields bypass the caches — irreducible
            // client↔middle-tier traffic.
            for key in 0..MANAGER_STATUS_QUERIES {
                call(rt, &manager, 2, vec![Value::I4(key), Value::Null])?;
            }
        }
        // The chart view renders a report.
        let report = rt.create_instance(
            Clsid::from_name("BenReportEngine"),
            Iid::from_name("IReport"),
        )?;
        let driver =
            rt.create_instance(Clsid::from_name("BenOdbcDriver"), Iid::from_name("IOdbc"))?;
        call(
            rt,
            &report,
            0,
            vec![Value::Interface(Some(driver)), Value::I4(1), Value::Null],
        )?;
        Ok(())
    }

    fn mutate_employee(&self, rt: &ComRuntime, employee: i32, fields: i32) -> ComResult<()> {
        let driver =
            rt.create_instance(Clsid::from_name("BenOdbcDriver"), Iid::from_name("IOdbc"))?;
        let validator = rt.create_instance(
            Clsid::from_name("BenValidator"),
            Iid::from_name("IValidator"),
        )?;
        call(rt, &validator, 0, vec![Value::Interface(Some(driver))])?;
        for _ in 0..fields {
            call(rt, &validator, 1, vec![Value::Blob(120), Value::Null])?;
        }
        let manager = rt.create_instance(
            Clsid::from_name("BenEmployeeManager"),
            Iid::from_name("IManager"),
        )?;
        call(
            rt,
            &manager,
            1,
            vec![Value::I4(employee), Value::Blob(2_000), Value::Null],
        )?;
        // Refresh the cached views afterwards.
        self.view_employee(rt, employee)
    }
}

impl Application for Benefits {
    fn name(&self) -> &str {
        "benefits"
    }

    fn register(&self, rt: &ComRuntime) {
        register_gui(rt);
        let reg = rt.registry();
        reg.register(
            "BenOdbcDriver",
            vec![iodbc()],
            ApiImports::DATABASE,
            |_, _| Arc::new(OdbcDriver),
        );
        for (name, entity) in [
            ("BenEmployeeManager", "employee"),
            ("BenBenefitsManager", "benefits"),
            ("BenDependentsManager", "dependents"),
        ] {
            reg.register(name, vec![imanager()], ApiImports::NONE, move |_, _| {
                Arc::new(Manager {
                    entity,
                    driver: Mutex::new(None),
                })
            });
        }
        reg.register(
            "BenResultCache",
            vec![icache()],
            ApiImports::NONE,
            |_, _| {
                Arc::new(ResultCache {
                    rows: Mutex::new(0),
                })
            },
        );
        reg.register("BenRecord", vec![irecord()], ApiImports::NONE, |_, _| {
            Arc::new(Record)
        });
        reg.register(
            "BenValidator",
            vec![ivalidator()],
            ApiImports::NONE,
            |_, _| {
                Arc::new(Validator {
                    rules: Mutex::new(0),
                })
            },
        );
        reg.register(
            "BenReportEngine",
            vec![ireport()],
            ApiImports::NONE,
            |_, _| Arc::new(ReportEngine),
        );
    }

    fn scenarios(&self) -> Vec<&'static str> {
        SCENARIOS.to_vec()
    }

    fn run_scenario(&self, rt: &ComRuntime, scenario: &str) -> ComResult<()> {
        // The VB front end.
        let form = rt.create_instance(
            Clsid::from_name("BenUiEmployeeForm"),
            Iid::from_name("IWidget"),
        )?;
        call(rt, &form, WIDGET_BUILD, vec![Value::Interface(None)])?;

        match scenario {
            "b_vueone" => self.view_employee(rt, 1001),
            "b_addone" => self.mutate_employee(rt, 1002, 12),
            "b_delone" => {
                // Deleting cascades: dependents first, then the employee,
                // then a fresh report of the department.
                self.mutate_employee(rt, 1003, 4)?;
                let report = rt.create_instance(
                    Clsid::from_name("BenReportEngine"),
                    Iid::from_name("IReport"),
                )?;
                let driver =
                    rt.create_instance(Clsid::from_name("BenOdbcDriver"), Iid::from_name("IOdbc"))?;
                call(
                    rt,
                    &report,
                    0,
                    vec![Value::Interface(Some(driver)), Value::I4(2), Value::Null],
                )?;
                Ok(())
            }
            "b_bigone" => {
                self.view_employee(rt, 1001)?;
                self.mutate_employee(rt, 1002, 12)?;
                self.mutate_employee(rt, 1003, 4)
            }
            other => Err(ComError::App(format!("benefits has no scenario `{other}`"))),
        }
    }

    fn image(&self) -> AppImage {
        AppImage::new(
            "benefits.exe",
            vec![
                Clsid::from_name("BenUiEmployeeForm"),
                Clsid::from_name("BenEmployeeManager"),
                Clsid::from_name("BenOdbcDriver"),
            ],
        )
    }

    fn default_placement(&self, class_name: &str) -> MachineId {
        if self.two_tier {
            // 2-tier: front end and business logic on the client; only the
            // database (pinned separately by its DATABASE import) remote.
            MachineId::CLIENT
        } else if class_name.starts_with("BenUi") {
            // 3-tier: Visual Basic front end on the client, everything
            // else on the middle tier.
            MachineId::CLIENT
        } else {
            MachineId::SERVER
        }
    }

    fn explicit_constraints(&self) -> Vec<NamedConstraint> {
        // The paper notes the programmer *can* add absolute and pair-wise
        // constraints for data integrity, though the analysis does not use
        // them. We keep the hook exercised: the ODBC driver is absolutely
        // constrained to the server (redundant with its DATABASE import).
        vec![NamedConstraint::Absolute(
            "BenOdbcDriver".into(),
            MachineId::SERVER,
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_scenario_builds_records_and_caches() {
        let app = Benefits::default();
        let rt = ComRuntime::single_machine();
        app.register(&rt);
        app.run_scenario(&rt, "b_vueone").unwrap();
        let count = |name: &str| {
            rt.instances_snapshot()
                .iter()
                .filter(|i| i.clsid == Clsid::from_name(name))
                .count() as i32
        };
        assert_eq!(
            count("BenRecord"),
            1 + BENEFITS_PER_EMPLOYEE + DEPENDENTS_PER_EMPLOYEE
        );
        assert_eq!(
            count("BenResultCache"),
            2 + BENEFIT_CACHES + DEPENDENT_CACHES
        );
    }

    #[test]
    fn all_scenarios_run() {
        let app = Benefits::default();
        for scenario in SCENARIOS {
            let rt = ComRuntime::single_machine();
            app.register(&rt);
            app.run_scenario(&rt, scenario)
                .unwrap_or_else(|e| panic!("{scenario}: {e}"));
        }
    }

    #[test]
    fn default_placement_matches_tiers() {
        let app = Benefits::three_tier();
        assert_eq!(app.default_placement("BenUiNavBar"), MachineId::CLIENT);
        assert_eq!(app.default_placement("BenResultCache"), MachineId::SERVER);
        assert_eq!(app.default_placement("BenOdbcDriver"), MachineId::SERVER);
        let two = Benefits::two_tier();
        assert_eq!(two.default_placement("BenResultCache"), MachineId::CLIENT);
        // The DATABASE import pins the driver regardless of the tiering
        // (run_default overrides storage classes to the server).
        assert_eq!(two.default_placement("BenUiNavBar"), MachineId::CLIENT);
    }
}
