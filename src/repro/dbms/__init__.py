"""The DBMS substrate: sqlite backend, internal-DB bridge, workload."""

from .internal_db import (
    answer_substitutions,
    assert_answers,
    term_to_value,
    value_to_term,
)
from .sqlite_backend import ExecutionStats, ExternalDatabase
from .workload import (
    Department,
    Employee,
    OrgHierarchy,
    generate_org,
    load_org,
    make_loaded_database,
)

__all__ = [
    "answer_substitutions",
    "assert_answers",
    "term_to_value",
    "value_to_term",
    "ExecutionStats",
    "ExternalDatabase",
    "Department",
    "Employee",
    "OrgHierarchy",
    "generate_org",
    "load_org",
    "make_loaded_database",
]
