"""RPL005 fixture: a raw ``os.open`` for writing under runtime/, outside
the segment opener — an append that is not a whole record can leave
readers half an entry."""

import os


def append_record(path, line):
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)
