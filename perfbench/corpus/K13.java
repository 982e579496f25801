import java.io.BufferedReader;
import java.io.File;
import java.io.FileReader;
import java.io.IOException;
import java.io.PrintWriter;
import java.util.Scanner;

class K13 {
    String firstLine(File f) throws IOException {
        BufferedReader reader = new BufferedReader(new FileReader(f));
        return reader.readLine();
    }

    void dump(PrintWriter out, Scanner in) {
        out.println(in.nextLine());
        System.out.println("done");
    }
}
