"""RPL005 negative fixture: a read-only ``os.open`` under runtime/."""

import os


def read_record(path, offset, length):
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.pread(fd, length, offset)
    finally:
        os.close(fd)
