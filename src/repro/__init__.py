"""repro — an optimizing Prolog front-end to a relational query system.

A full reproduction of Jarke, Clifford & Vassiliou, *An Optimizing Prolog
Front-End to a Relational Query System* (ACM SIGMOD 1984): a Prolog
engine, the DBCL tableau intermediate language, the metaevaluator, the
syntactic/semantic local optimizer (Algorithm 2), DBCL→SQL translation,
an SQLite execution substrate, and the global coupling layer with
recursion strategies and multiple-query optimization.

Quickstart::

    from repro import PrologDbSession, generate_org
    from repro.schema import ALL_VIEWS_SOURCE

    session = PrologDbSession()
    session.load_org(generate_org(depth=3, branching=2, staff_per_dept=4))
    session.consult(ALL_VIEWS_SOURCE)
    print(session.ask("works_dir_for(X, 'emp00001')"))
    print(session.explain("same_manager(X, 'emp00002')").sql_text)
"""

from .coupling import (
    BatchExecutor,
    PrologDbSession,
    ResultCache,
    TransitiveClosure,
    TranslationTrace,
)
from .dbcl import DbclPredicate, TableauBuilder, format_dbcl, parse_dbcl
from .dbms import ExternalDatabase, OrgHierarchy, generate_org, load_org
from .errors import ReproError
from .materialize import MaterializeManager, MaterializedView
from .metaevaluate import Metaevaluator, metaevaluate
from .optimize import SimplificationResult, SimplifyOptions, simplify
from .prolog import Engine, KnowledgeBase
from .schema import (
    ConstraintSet,
    DatabaseSchema,
    empdep_constraints,
    empdep_schema,
    make_schema,
)
from .serving import FrontDoor, ServingTier
from .sql import print_sql, translate

__version__ = "1.0.0"

__all__ = [
    "BatchExecutor",
    "PrologDbSession",
    "ResultCache",
    "TransitiveClosure",
    "TranslationTrace",
    "DbclPredicate",
    "TableauBuilder",
    "format_dbcl",
    "parse_dbcl",
    "ExternalDatabase",
    "OrgHierarchy",
    "generate_org",
    "load_org",
    "ReproError",
    "MaterializeManager",
    "MaterializedView",
    "Metaevaluator",
    "metaevaluate",
    "SimplificationResult",
    "SimplifyOptions",
    "simplify",
    "Engine",
    "KnowledgeBase",
    "ConstraintSet",
    "DatabaseSchema",
    "empdep_constraints",
    "empdep_schema",
    "make_schema",
    "FrontDoor",
    "ServingTier",
    "print_sql",
    "translate",
    "__version__",
]
