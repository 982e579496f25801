import java.io.IOException;
import java.nio.file.Files;
import java.nio.file.Path;
import java.nio.file.Paths;

class K14 {
    Path locate(String name) {
        return Paths.get(name);
    }

    byte[] slurp(Path p) throws IOException {
        return Files.readAllBytes(p);
    }
}
